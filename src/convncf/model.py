"""Model assembly: merge function x prediction head, checkpoints, parameter counts.

A model is a ``ModelSpec`` (architecture plus head parameters) together with
``EmbeddingTables``, the tables its variant owns. The merge kind decides how
the two embeddings combine; the head maps the merged value to a scalar score:

* ``OUTER`` + ``ConvStack``: the full interaction-map model. The K x K outer
  product is treated as a one-channel image, gathered once into quadtree
  order (``tensor``), and halved by 2x2/stride-2 convolutions, one matrix
  product per layer, until a 1 x 1 x C vector remains, which a weight
  vector projects to the score.
* ``OUTER`` + ``MlpHead``: the ablation that flattens the interaction map
  row-major to a K^2 vector for a fully-connected tower.
* ``ELEMENTWISE`` + ``LinearHead`` (GMF) or ``MlpHead`` (JRL).
* ``CONCAT`` + ``MlpHead`` (the plain MLP baseline).
* ``INNER`` + ``IdentityHead``: the shallow dot-product models.

Every forward and backward pass works on a batch. User and item rows are
``(B, K)``, interaction maps ``(B, K, K)``, conv feature stacks ``(B, P, C)``
with the P = s*s positions of an s x s map in quadtree order, and scores
``(B,)``. Training runs a triple's positive and negative as one batch of
two, gradcheck runs that same forward, and ``score_rows`` scores rows of
(user row, item) pairs through the same ``head_forward`` in blocks of at
most a few MiB and ``SCORE_BLOCK_ROWS`` rows, spread over every usable CPU:
``predict_batch`` scores one user's candidates, and evaluation scores many
users' candidates laid end to end, so at small K one block holds several
users. Blocks are the pool's unit of work; inside a block a conv tower runs
in chunks of rows small enough for its layer-1 activations to stay in cache
(``TOWER_CHUNK_BYTES``), through buffers its thread keeps (``ConvWork``), and
each layer's product over the flat patch rows of all those rows at once, in
ranges small enough for BLAS's small-matrix kernels (``SMALL_PRODUCT_MACS``).
Each row's result is bit-identical to that row scored alone: BLAS's gemm
computes a row of a product as it would alone, and no conv product has a
single row, which numpy would run as gemv. The exception is an MLP head:
each of its layers is one matrix product over the whole batch, which reads
the weight matrix once per batch and agrees with the row alone to rounding.

A head's backward pass sums its gradients over the batch into the caller's
views keyed by section name (``head_views``: ``conv.<l>.kernel``,
``conv.<l>.bias``, ``mlp.<l>.W``, ``mlp.<l>.b``, ``w``) and returns its
input's cotangent; the names also address checkpoints and gradcheck reports.
"""

from __future__ import annotations

import io
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Iterable, Optional, Union

import numpy as np

from convncf.embeddings import EmbeddingTables, FISM_NORM_EXCLUDED, FISM_NORMS, Variant, history_terms, user_rows
from convncf.tensor import conv2x2s2_backward, conv2x2s2_forward, from_quadtree, patch_rows, relu_backward, to_quadtree


class MergeKind(Enum):
    ELEMENTWISE = "elementwise"
    CONCAT = "concat"
    OUTER = "outer"
    INNER = "inner"


class HeadKind(Enum):
    CNN = "cnn"
    MLP = "mlp"
    LINEAR = "linear"
    IDENTITY = "identity"


class ConfigurationError(ValueError):
    """Raised when an architecture's pieces do not fit together."""


class FormatError(ValueError):
    """Raised when a checkpoint file cannot be decoded."""


@dataclass
class ConvLayer:
    kernel: np.ndarray  # (2, 2, cin, C)
    bias: np.ndarray  # 0-d array, one scalar per layer


@dataclass
class ConvStack:
    """The convolution tower: per-layer kernels, scalar biases, prediction weights."""

    layers: list[ConvLayer]
    w: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def C(self) -> int:
        return self.layers[0].kernel.shape[3]

    def validate(self) -> None:
        if not self.layers:
            raise ConfigurationError("conv stack needs at least one layer")
        C = self.C
        for l, layer in enumerate(self.layers, start=1):
            expect_cin = 1 if l == 1 else C
            kh, kw, cin, cout = layer.kernel.shape
            if (kh, kw) != (2, 2) or cin != expect_cin or cout != C:
                raise ConfigurationError(
                    f"conv layer {l} kernel shape {layer.kernel.shape}, expected (2, 2, {expect_cin}, {C})"
                )
            if layer.bias.shape != ():
                raise ConfigurationError(f"conv layer {l} bias shape {layer.bias.shape}, expected ()")
        if self.w.shape != (C,):
            raise ConfigurationError(f"prediction weights shape {self.w.shape}, expected ({C},)")


@dataclass
class MlpLayer:
    W: np.ndarray  # (m, n)
    b: np.ndarray  # (m,)


@dataclass
class MlpHead:
    """Half-size fully-connected tower with relu, projected to a scalar."""

    layers: list[MlpLayer]
    w: np.ndarray  # prediction weights on the last hidden layer

    @property
    def in_width(self) -> int:
        return self.layers[0].W.shape[1]

    def validate(self) -> None:
        if not 1 <= len(self.layers) <= 3:
            raise ConfigurationError(f"mlp head supports 1..3 hidden layers, got {len(self.layers)}")
        prev = self.in_width
        for l, layer in enumerate(self.layers, start=1):
            m, n = layer.W.shape
            if n != prev or layer.b.shape != (m,):
                raise ConfigurationError(f"mlp layer {l} does not chain: W {layer.W.shape}, b {layer.b.shape}")
            prev = m
        if self.w.shape != (prev,):
            raise ConfigurationError(f"mlp prediction weights shape {self.w.shape}, expected ({prev},)")


@dataclass
class LinearHead:
    w: np.ndarray


@dataclass
class IdentityHead:
    pass


Head = Union[ConvStack, MlpHead, LinearHead, IdentityHead]

_ALLOWED = {
    MergeKind.OUTER: (ConvStack, MlpHead),
    MergeKind.ELEMENTWISE: (LinearHead, MlpHead),
    MergeKind.CONCAT: (MlpHead,),
    MergeKind.INNER: (IdentityHead,),
}


@dataclass
class ModelSpec:
    """Architecture record: embedding variant, merge kind, head parameters,
    and the history normalizer: the sum over ``n`` history rows is divided
    by ``n**alpha``, with ``n`` counted by the ``fism_norm`` rule (read only
    by variants that read history)."""

    variant: Variant
    merge: MergeKind
    head: Head
    K: int
    fism_norm: str = FISM_NORM_EXCLUDED
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.fism_norm not in FISM_NORMS:
            raise ConfigurationError(f"unknown fism_norm {self.fism_norm!r}")
        if not isinstance(self.head, _ALLOWED[self.merge]):
            raise ConfigurationError(
                f"merge {self.merge.value} does not admit head {type(self.head).__name__}"
            )
        if isinstance(self.head, ConvStack):
            self.head.validate()
            if 2 ** self.head.depth != self.K:
                raise ConfigurationError(
                    f"embedding size {self.K} needs a power-of-two tower; depth {self.head.depth} covers {2 ** self.head.depth}"
                )
        elif isinstance(self.head, MlpHead):
            self.head.validate()
            width = merged_width(self.merge, self.K)
            if self.head.in_width != width:
                raise ConfigurationError(f"mlp input width {self.head.in_width} != merged width {width}")
        elif isinstance(self.head, LinearHead) and self.head.w.shape != (self.K,):
            raise ConfigurationError(f"linear head weights shape {self.head.w.shape}, expected ({self.K},)")

    @property
    def head_kind(self) -> HeadKind:
        return {ConvStack: HeadKind.CNN, MlpHead: HeadKind.MLP, LinearHead: HeadKind.LINEAR, IdentityHead: HeadKind.IDENTITY}[type(self.head)]


# ---------------------------------------------------------------------------
# merge


def merged_width(kind: MergeKind, K: int) -> int:
    """Width of a merged row flattened row-major: an MLP head's input width."""
    return {MergeKind.OUTER: K * K, MergeKind.CONCAT: 2 * K}.get(kind, K)


def merge(kind: MergeKind, FU: np.ndarray, FI: np.ndarray, work: Optional[ConvWork] = None):
    """Combine rows of user and item embeddings, both ``(B, K)``, into
    ``(B, K)`` vectors, ``(B, 2K)`` vectors, ``(B, K, K)`` maps (into the
    map buffer of a conv tower's ``work`` when given) or ``(B,)`` scalars. A
    single user row ``(1, K)`` is shared by every item row."""
    if kind is MergeKind.ELEMENTWISE:
        return FU * FI
    if kind is MergeKind.CONCAT:
        return np.concatenate([np.broadcast_to(FU, FI.shape), FI], axis=1)
    if kind is MergeKind.OUTER:
        return np.einsum("nk,nl->nkl", FU, FI, out=None if work is None else work.views(FI.shape[0])[0])
    if kind is MergeKind.INNER:
        return np.vecdot(FU, FI)
    raise ValueError(f"unknown merge kind {kind!r}")


def merge_backward(kind: MergeKind, FU: np.ndarray, FI: np.ndarray, d_merged, d_FU: np.ndarray, d_FI: np.ndarray) -> None:
    """Adjoint of merge: the per-row cotangents of both embeddings into
    ``d_FU`` and ``d_FI``, shaped as FI."""
    if kind is MergeKind.ELEMENTWISE:
        np.multiply(d_merged, FI, d_FU)
        np.multiply(d_merged, FU, d_FI)
    elif kind is MergeKind.CONCAT:
        np.copyto(d_FU, d_merged[:, : FU.shape[1]])
        np.copyto(d_FI, d_merged[:, FU.shape[1] :])
    elif kind is MergeKind.OUTER:
        np.matmul(d_merged, FI[..., None], d_FU[..., None])
        np.matmul(d_merged.transpose(0, 2, 1), FU[..., None], d_FI[..., None])
    elif kind is MergeKind.INNER:
        np.multiply(d_merged[:, None], FI, d_FU)
        np.multiply(d_merged[:, None], FU, d_FI)
    else:
        raise ValueError(f"unknown merge kind {kind!r}")


# ---------------------------------------------------------------------------
# heads
#
# Forward passes take a batch of merged values and return one score per row.
# A tower head (conv or MLP) caches one list of activations: acts[0] is the
# head input and acts[l] is layer l's relu output, which is also layer
# l + 1's input. Backward passes mask on acts[l] > 0, the same mask as the
# pre-activation's sign, so no pre-activation is kept. They take one score
# cotangent per row, write the head gradients summed over the batch into the
# caller's section views and return the per-row cotangents of their input.
# A conv head's map, activations (acts[0] is its quadtree-ordered map) and
# layer cotangents live in a ConvWork the caller passes to merge and to both
# passes (``tower_work``), and its backward reads the activations there;
# other heads take None.
# The conv and linear heads form gradients per row, then sum, so a batch of
# two gives exactly the sum of two single-row passes; the MLP head sums
# inside one matrix product per layer, which equals that sum to rounding.


# Multiply-adds per BLAS call at most. numpy's bundled OpenBLAS picks its
# SkylakeX core on an AVX-512 CPU, and that core runs a float64 product of
# M*N*K <= 10^6 on small-matrix kernels that pack no operand. On a 2-CPU
# AVX-512 Xeon, one BLAS thread, pinned, (244, 128) @ (128, 32) (999,424)
# took 26.2 us (76 GFLOP/s) and (245, 128) @ (128, 32) 38.7 us (52 GFLOP/s).
# So a ConvWork runs each layer's product over the flat patch rows of all
# the rows it computes at once, cut into equal power-of-two ranges that
# keep every call within this bound, as one stacked numpy call, plus one
# call for the rows left over (_products): at K=64 C=32 layers 2-4 of a
# 16-row block run in 128-row ranges, and at K=4 C=8 each layer of a
# 1,024-row block is one call. A range is a row range of the product, which BLAS's gemm computes
# entry by entry as it would alone, so a row keeps its bytes whatever rows
# share its call (tests/test_model.py runs K = 8..128 x C = 4..64 with and
# without the bound). numpy runs a one-row product as gemv, which sums in
# another order, so the last layer, one patch row per batch row, runs over
# an even row count (ConvWork's pad row). On the Xeon above, pinned, a warm
# K=4 C=8 block took 121 us against 205 us with one call per row (2,048
# calls, half of them gemv) at 1,024 rows, and a K=64 C=32 16-row block
# ~1.53 ms either way.
SMALL_PRODUCT_MACS = 10**6


def _products(patches: np.ndarray, act: np.ndarray) -> tuple:
    """(patch rows, act rows) views of a layer's flat ``(N, 4 cin) @ (4 cin,
    C) -> (N, C)`` product: its leading rows as a stack of the largest
    power-of-two ranges, at least 2 rows, within SMALL_PRODUCT_MACS, then
    the rows left over, if any."""
    rows, inner = patches.shape
    cols = act.shape[1]
    step = 1 << max(1, (SMALL_PRODUCT_MACS // (inner * cols)).bit_length() - 1)
    full = rows - rows % step
    ranges = ((patches[:full].reshape(-1, step, inner), act[:full].reshape(-1, step, cols)),) if full else ()
    return ranges + ((patches[full:], act[full:]),) if full < rows else ranges


class ConvWork:
    """Buffers for the wide arrays of a conv tower over up to ``rows`` rows,
    allocated once by a caller that runs the tower many times, and views of
    them for a pass over n rows, built once per batch size. ``acts`` is
    shaped as convncf_forward's activation list (the ``(rows, K*K, 1)``
    quadtree map, then each layer's ``(rows, P_l, C)`` relu output), except
    that layer 1's holds ``chunk`` rows (default ``rows``; all of them at
    depth 1), the rows it computes at once, and that the last layer's input
    and output buffers hold one spare row; ``E`` holds the maps merge
    writes; a backward makes ``cotangents``. A layer's product runs over the
    flat patch rows of every row it computes at once, in ranges within
    SMALL_PRODUCT_MACS (_products). The last layer has one patch row per
    row, so over an odd count its input's last row is first copied into the
    row after it, the pad row, and no product is a one-row gemv; no one
    reads the pad row's output, a row past the count or the next chunk's
    first row, written after it. No view points into a head's parameters,
    so one ConvWork serves every tower of its shape."""

    def __init__(self, stack: ConvStack, rows: int, chunk: Optional[int] = None):
        K, C, depth = 2**stack.depth, stack.C, stack.depth
        chunk = rows if chunk is None or depth == 1 else min(chunk, rows)
        self.shapes = [(rows, K * K, 1), (chunk, K * K // 4, C)] + [(rows, (K >> l) ** 2, C) for l in range(2, depth + 1)]
        self.K, self.C, self.chunk = K, C, max(1, chunk)  # chunk: a range step, also over an empty batch
        self.acts = [np.empty((m + (l >= depth - 1), *rest)) for l, (m, *rest) in enumerate(self.shapes)]
        self.E = np.empty((rows, K, K))
        self.n = self.fwd = self.bwd = None

    @cached_property
    def cotangents(self) -> tuple:
        """(each acts[l]'s cotangent, masked in place by layer l's relu; the
        layers' shared relu mask buffers; per-row kernel gradients; d_E)."""
        entries = max(math.prod(shape) for shape in self.shapes[1:])
        d_kernels = [np.empty((shape[0], 4 * shape[2], self.C)) for shape in self.shapes[:-1]]
        d_acts = [np.empty(shape) for shape in self.shapes]
        return d_acts, (np.empty(entries, bool), np.empty(entries, np.int64)), d_kernels, np.empty(self.shapes[0])

    def _layer(self, l: int, inp: np.ndarray, out: np.ndarray, n: int) -> tuple:
        """The call of layer l + 1 over n rows from ``inp``'s leading rows
        into ``out``'s: (l, pad, flat patch rows, flat act, _products). pad
        is (the pad row, the last row) of the input when the last layer runs
        over an odd n, else ()."""
        m = n + (n % 2 == 1 and l == len(self.shapes) - 2)
        patches, act = inp[:m].reshape(-1, 4 * inp.shape[2]), out[:m].reshape(-1, self.C)
        return l, (patches[n], patches[n - 1]) if m > n else (), patches, act, _products(patches, act)

    def views(self, n: int):
        """A forward's views over n rows: (E, acts, the layer calls in call
        order, layer 1 by chunks each followed by layer 2, acts[-1] as
        ``(n, C)``)."""
        if n != self.n:
            buffers, calls = self.acts, []
            for a in range(0, n, self.chunk):
                rows = min(self.chunk, n - a)
                calls.append(self._layer(0, buffers[0][a:], buffers[1], rows))
                calls += [self._layer(1, buffers[1], buf[a:], rows) for buf in buffers[2:3]]
            calls += [self._layer(l, buffers[l], buffers[l + 1], n) for l in range(2, len(buffers) - 1)]
            acts = [buf[:n] for buf in buffers]
            self.n, self.fwd, self.bwd = n, (self.E[:n], acts, calls, acts[-1].reshape(n, self.C)), None
        return self.fwd

    def backward_views(self, n: int):
        """After views(n), a backward's views: (the last layer's output and
        its cotangent as ``(n, C)``; per layer from the top its section
        names, columns, act, (d_act, its int64 view, relu mask views),
        d_kernel as ``(n, 4 cin, C)`` and ``(n,) + kernel.shape``, the input
        cotangent's patch rows; the map's cotangent; its row-major copy as
        ``(n, K*K, 1)`` and ``(n, K, K)``)."""
        if self.bwd is None:
            d_acts, masks, d_kernels, d_E = self.cotangents
            acts, d, layers = self.fwd[1], [buf[:n] for buf in d_acts], []
            for l in range(len(acts) - 1, 0, -1):
                live, mask = (buf[: acts[l].size].reshape(acts[l].shape) for buf in masks)
                relu, d_kernel_mat = (d[l], d[l].view(np.int64), live, live.view(np.int8), mask), d_kernels[l - 1][:n]
                names, columns = (f"conv.{l}.kernel", f"conv.{l}.bias"), patch_rows(acts[l - 1]).transpose(0, 2, 1)
                layers.append((*names, columns, acts[l], relu, d_kernel_mat, d_kernel_mat.reshape(n, 2, 2, -1, self.C), patch_rows(d[l - 1])))
            self.bwd = (self.fwd[3], d[-1].reshape(n, self.C), layers, d[0], d_E[:n], d_E[:n].reshape(n, self.K, self.K))
        return self.bwd


def tower_work(spec: ModelSpec, rows: int) -> Optional[ConvWork]:
    """A ConvWork for ``rows`` rows of a conv head, unchunked; None for any
    other head, which runs without one."""
    return ConvWork(spec.head, rows) if isinstance(spec.head, ConvStack) else None


def convncf_forward(stack: ConvStack, E: np.ndarray, work: ConvWork):
    """Run the tower over a batch of ``(B, K, K)`` interaction maps, gathered
    once into quadtree order, through ``work``'s buffers; returns (acts,
    scores), acts views of the buffers' leading B rows. Layer 1 runs in
    chunks of ``work.chunk`` rows, and layer 2 takes each chunk while it is
    still in cache; ``acts[1]`` then holds the last chunk only, so only a
    batch of one chunk can run backward."""
    _, acts, calls, features = work.views(E.shape[0])
    to_quadtree(E[..., None], acts[0])
    layers = stack.layers
    for l, pad, patches, act, products in calls:
        if pad:
            np.copyto(*pad)
        conv2x2s2_forward(patches, layers[l].kernel, layers[l].bias, act, products)
    return acts, np.vecdot(features, stack.w)


def convncf_backward(stack: ConvStack, d_y: np.ndarray, out: dict[str, np.ndarray], work: ConvWork):
    """Adjoint of convncf_forward over the activations ``work`` holds from
    its last forward: head grads into ``out``; returns d_E, a view of
    ``work``'s buffer. Raises ValueError when layer 1 ran in chunks, so
    that it holds only the last one, or when ``work``'s last forward ran
    another batch size."""
    n = d_y.shape[0]
    if work.chunk < n or work.n != n:
        raise ValueError(f"layer 1 holds {min(work.chunk, n)} of {n} rows, the last forward {work.n}: run backward after its own forward")
    features, d_top, layers, d_map, d_rows, d_E = work.backward_views(n)
    np.add.reduce(d_y[:, None] * features, axis=0, out=out["w"])
    np.multiply.outer(d_y, stack.w, out=d_top)
    for layer, (kernel_name, bias_name, columns, act, relu, d_kernel_mat, d_kernel, d_patches) in zip(reversed(stack.layers), layers):
        d_bias = conv2x2s2_backward(columns, layer.kernel, act, *relu, d_kernel_mat, d_patches)
        np.add.reduce(d_kernel, axis=0, out=out[kernel_name])
        np.add.reduce(d_bias, axis=0, out=out[bias_name])
    from_quadtree(d_map, d_rows)
    return d_E


def mlp_forward(head: MlpHead, X0: np.ndarray):
    """Run the tower over ``(B, n)`` rows, one matrix product per layer over
    the whole batch; returns (acts, scores)."""
    acts = [X0]
    for layer in head.layers:
        X = acts[-1] @ layer.W.T
        X += layer.b
        acts.append(np.maximum(X, 0.0, out=X))
    return acts, np.vecdot(acts[-1], head.w)


def mlp_backward(head: MlpHead, acts: list[np.ndarray], d_y: np.ndarray, out: dict[str, np.ndarray]):
    """Adjoint of mlp_forward, two matrix products per layer over the whole
    batch: head grads into ``out``; returns d_X0."""
    np.add.reduce(d_y[:, None] * acts[-1], axis=0, out=out["w"])
    d_X = d_y[:, None] * head.w
    for l in range(len(head.layers), 0, -1):
        layer = head.layers[l - 1]
        relu_backward(acts[l], d_X.view(np.int64), live := np.empty(d_X.shape, bool), live.view(np.int8), np.empty(d_X.shape, np.int64))
        np.matmul(d_X.T, acts[l - 1], out=out[f"mlp.{l}.W"])
        np.add.reduce(d_X, axis=0, out=out[f"mlp.{l}.b"])
        d_X = d_X @ layer.W
    return d_X


def head_forward(spec: ModelSpec, merged, work: Optional[ConvWork]):
    """Dispatch a batch of merged values through the head; returns
    (acts, scores of shape (B,)), with acts None for a head without layers;
    a conv head runs through ``work`` (see convncf_forward), others take
    None."""
    head = spec.head
    if isinstance(head, ConvStack):
        return convncf_forward(head, merged, work)
    if isinstance(head, MlpHead):
        return mlp_forward(head, merged.reshape(merged.shape[0], head.in_width))
    if isinstance(head, LinearHead):
        return None, np.vecdot(merged, head.w)
    return None, merged


def head_backward(spec: ModelSpec, merged, acts, d_y: np.ndarray, out: dict[str, np.ndarray], work: Optional[ConvWork]):
    """Adjoint of head_forward: the head grads, summed over the batch, into
    ``out``'s section views; returns the per-row d_merged. A conv head's
    backward reads its activations and writes its cotangents in ``work``
    (see convncf_backward)."""
    head = spec.head
    if isinstance(head, ConvStack):
        return convncf_backward(head, d_y, out, work)
    if isinstance(head, MlpHead):
        return mlp_backward(head, acts, d_y, out).reshape(merged.shape)
    if isinstance(head, LinearHead):
        np.add.reduce(d_y[:, None] * merged, axis=0, out=out["w"])
        return d_y[:, None] * head.w
    return d_y


# ---------------------------------------------------------------------------
# scoring

# Bytes of first-layer head activations per scoring block: 16 rows of the
# K=64 C=32 tower (at small K the row cap below binds first, and a block may
# hold several users' rows). A block is the scoring pool's unit of work: the
# blocks run on the calling thread and one pool thread per further usable
# CPU (numpy's products release the GIL; no thread starts before a call has
# two blocks). A conv tower never holds a whole block's layer-1 activations:
# it computes them in chunks of TOWER_CHUNK_BYTES, the cache's unit, in
# buffers its thread keeps, so this size sets neither memory nor training
# speed. On a 2-CPU Xeon (2 MiB L2 per core, one BLAS thread; single 20 s
# seed-1 flagship benchmark runs) 1 MiB blocks trained at 642 triples/s (636
# pinned to one CPU), as these do (631; 599-605 pinned), but evaluated 90.9
# users/s (64.6 pinned) against 105 (67) with these.
SCORE_BLOCK_BYTES = 4 * 2**20
# Rows per scoring block at most, whatever the byte budget allows: at small K
# a block then holds a few users' candidates, and evaluation's blocks keep
# both CPUs busy. On the Xeon above, desk evaluation (K=4 C=8, ~280
# candidates per user) took 6.9 ms per model state at +1.5 MB peak RSS with
# 1,024-row blocks, 9.4 ms at +6.2 MB with 4,096, and 9.0 ms at +22 MB with
# the byte budget's 16,384; one call per user took 13.1-13.4 ms at +0.5 MB.
SCORE_BLOCK_ROWS = 1024
# Bytes of layer-1 activations per chunk that a conv tower computes at once
# inside a block: 2 rows of the K=64 C=32 tower, so a chunk's product, bias,
# relu and layer 2's product work from the 2 MiB L2 of the Xeon above (at
# K=4 C=8 a 1,024-row block is one chunk). Against whole-block layers, in
# alternating pairs of 60 s seed-1 flagship benchmark runs, evaluation read
# medians of 108.7 against 102.7 users/s on both CPUs (10 pairs, 8 won; the
# whole-block quartiles 100.8-107.9) and 68.7 against 59.9 pinned to one (4
# pairs, 4 won), recommend 17.6 against 18.0 ms (29.1 against 32.1 pinned),
# and peak RSS 52.8 against 57.2 MB. In 20 s runs 2-row chunks through the
# whole tower read 88 users/s against 105: the whole tower's many small calls
# contend for the GIL. With layer 2 in slices (SMALL_PRODUCT_MACS), in 4
# alternating pairs of 60 s seed-1 runs against these, 256 KiB chunks read
# 106.0 against 121.5 users/s and 17.8 against 15.6 ms per recommend (4 of 4
# pairs lost each); 1 MiB chunks read 124.2 against 120.2 users/s (2 of 4
# won) and 15.2 against 15.6 ms (3 of 4), both inside these runs' spread,
# at 54.3 against 53.3 MB peak RSS.
TOWER_CHUNK_BYTES = 512 * 2**10
SCORE_WORKERS = len(os.sched_getaffinity(0))
_SCORE_POOL = ThreadPoolExecutor(max_workers=max(1, SCORE_WORKERS - 1), thread_name_prefix="convncf-score")


def block_rows(spec: ModelSpec) -> int:
    """Rows per scoring block: the byte budget's, capped at SCORE_BLOCK_ROWS."""
    head = spec.head
    if isinstance(head, ConvStack):
        width = (spec.K // 2) ** 2 * head.C
    elif isinstance(head, MlpHead):
        width = head.layers[0].W.shape[0]
    else:
        width = spec.K
    return max(1, min(SCORE_BLOCK_ROWS, SCORE_BLOCK_BYTES // (8 * width)))


class CandidateIndexError(IndexError):
    """A candidate item index outside [0, N), at ``position`` in its array."""

    def __init__(self, item: int, N: int, position: int):
        super().__init__(f"candidate item index {item} out of range [0, {N})")
        self.position = position


def check_items(items: np.ndarray, N: int) -> None:
    """Raise CandidateIndexError for the first int64 item index outside [0, N)."""
    if items.size and items.view(np.uint64).max() >= N:  # a negative index reads as >= 2**63
        position = int(np.argmax(items.view(np.uint64) >= N))
        raise CandidateIndexError(int(items[position]), N, position)


def score_rows(spec: ModelSpec, FU: np.ndarray, Q: np.ndarray, items: np.ndarray, owner: Optional[np.ndarray] = None):
    """Score row r, user row ``FU[owner[r]]`` (FU's one row when ``owner`` is
    None) against item ``items[r]``, in consecutive blocks of ``block_rows``
    rows; returns an iterator over the blocks' scores, in row order. Indices
    are not checked here. Two or more blocks run on the calling thread and
    the scoring pool (see ``_shared_map``). No call scores zero blocks:
    empty ``items`` give one empty block."""
    rows = block_rows(spec)

    def block(start: int) -> np.ndarray:
        stop = min(start + rows, items.shape[0])
        fu = FU if owner is None else FU.take(owner[start:stop], axis=0)
        return _score_block(spec, fu, Q, items[start:stop])

    starts = range(0, max(1, items.shape[0]), rows)
    return map(block, starts) if SCORE_WORKERS == 1 or len(starts) == 1 else _shared_map(block, starts)


def _shared_map(fn, args):
    """``fn`` over ``args`` on the calling thread and up to SCORE_WORKERS - 1
    pool threads, each taking the next argument not yet taken; yields the
    results in argument order and raises, at a call that failed, its
    exception. The caller scores too: on a 2-CPU Xeon, after a training
    epoch left one CPU idle, handing every block to the pool made desk
    evaluation slower than scoring inline."""
    results: list = [None] * len(args)
    taken = iter(range(len(args)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                k = next(taken, None)
            if k is None:
                return
            try:
                results[k] = fn(args[k])
            except Exception as exc:  # raised in argument order below
                results[k] = exc

    helpers = [_SCORE_POOL.submit(work) for _ in range(min(SCORE_WORKERS, len(args)) - 1)]
    work()
    for helper in helpers:
        if not helper.cancel():  # a helper that never started has nothing left to take
            helper.result()
    for result in results:
        if isinstance(result, Exception):
            raise result
        yield result


def predict_batch(
    spec: ModelSpec,
    tables: EmbeddingTables,
    u: int,
    items: np.ndarray,
    history: Iterable[int] = (),
) -> np.ndarray:
    """Score candidate items for one user, in blocks of rows.

    The one public scoring entry for a single user, so it checks that
    ``items`` and the ``history`` it reads are 1-D integer arrays, that ``u``
    is an integer and not a bool, and that ``u`` (given a user table) and
    every index lie in their tables. The user row excludes no target, exact
    when no candidate is in the history. Every score is bit-identical to
    that candidate scored alone, except with an MLP head, whose matrix
    products over a block agree to rounding.
    """
    items, history = np.asarray(items), np.asarray(history if spec.variant.reads_history else ())
    for name, arr in (("items", items), ("history", history)):
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise IndexError(f"{name} must be a 1-D array of integer indices, got {arr.dtype} of shape {arr.shape}")
    if isinstance(u, bool) or not isinstance(u, (int, np.integer)):
        raise IndexError(f"user index must be an integer, got {type(u).__name__} {u!r}")
    if tables.M is not None and not 0 <= u < tables.M:
        raise IndexError(f"user index {u} out of range [0, {tables.M})")
    terms = history_terms(history)[None] if spec.variant.reads_history else None
    if terms is not None and terms.size and (terms[0, 0] < 0 or terms[0, -1] >= tables.N):
        raise IndexError("history item index out of range")
    items = items.astype(np.int64, copy=False)
    check_items(items, tables.N)
    blocks = list(score_rows(spec, user_rows(spec, tables, (u,), terms), tables.Q, items))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _score_block(spec: ModelSpec, FU: np.ndarray, Q: np.ndarray, items: np.ndarray) -> np.ndarray:
    """One block's scores; a conv tower runs through its thread's ConvWork."""
    FI = Q.take(items, axis=0)  # the same rows as Q[items], ~6x faster for a block's 1-D index
    work = _thread_work(spec)
    return head_forward(spec, merge(spec.merge, FU, FI, work), work)[1]


def chunk_rows(spec: ModelSpec) -> int:
    """Rows per tower chunk of a conv head: TOWER_CHUNK_BYTES of layer-1
    activations, at most a block."""
    return max(1, min(block_rows(spec), TOWER_CHUNK_BYTES // (8 * (spec.K // 2) ** 2 * spec.head.C)))


_THREAD = threading.local()


def _thread_work(spec: ModelSpec) -> Optional[ConvWork]:
    """The calling thread's scoring buffers for ``spec``'s tower, a block's
    rows in chunks of ``chunk_rows``, kept between blocks and calls; a
    thread keeps one set, made again when the tower's shape or a size
    constant changes. None for any other head, which runs without one."""
    if not isinstance(spec.head, ConvStack):
        return None
    key = (spec.K, spec.head.C, SCORE_BLOCK_BYTES, SCORE_BLOCK_ROWS, TOWER_CHUNK_BYTES, SMALL_PRODUCT_MACS)
    if getattr(_THREAD, "key", None) != key:
        _THREAD.work, _THREAD.key = ConvWork(spec.head, block_rows(spec), chunk_rows(spec)), key
    return _THREAD.work


# ---------------------------------------------------------------------------
# initialization


def init_conv_stack(K: int, C: int, seed) -> ConvStack:
    """He-scaled Gaussian kernels, zero biases; depth is log2(K)."""
    depth = int(math.log2(K))
    if 2 ** depth != K:
        raise ConfigurationError(f"embedding size must be a power of two for the tower, got {K}")
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(1, depth + 1):
        cin = 1 if l == 1 else C
        std = math.sqrt(2.0 / (4 * cin))
        layers.append(
            ConvLayer(
                kernel=rng.normal(0.0, std, size=(2, 2, cin, C)),
                bias=np.zeros(()),
            )
        )
    w = rng.normal(0.0, 1.0 / math.sqrt(C), size=C)
    return ConvStack(layers=layers, w=w)


def init_mlp_head(in_width: int, n_layers: int, seed) -> MlpHead:
    """Half-size tower of relu layers plus a scalar projection."""
    rng = np.random.default_rng(seed)
    layers = []
    prev = in_width
    for _ in range(n_layers):
        width = prev // 2
        if width < 1:
            raise ConfigurationError(f"mlp tower collapses below width 1 from input {in_width}")
        layers.append(
            MlpLayer(
                W=rng.normal(0.0, math.sqrt(2.0 / prev), size=(width, prev)),
                b=np.zeros(width),
            )
        )
        prev = width
    w = rng.normal(0.0, 1.0 / math.sqrt(prev), size=prev)
    return MlpHead(layers=layers, w=w)


def new_head(kind: HeadKind, spec_merge: MergeKind, K: int, C: int, mlp_layers: int, seed) -> Head:
    if kind is HeadKind.CNN:
        return init_conv_stack(K, C, seed)
    if kind is HeadKind.MLP:
        return init_mlp_head(merged_width(spec_merge, K), mlp_layers, seed)
    if kind is HeadKind.LINEAR:
        # all-ones projection, so the untrained model starts at the inner product
        return LinearHead(w=np.ones(K))
    return IdentityHead()


# ---------------------------------------------------------------------------
# parameter sections


def _section_slots(head: Head) -> list[tuple[str, object, str]]:
    """(section name, owner, attribute) of each head parameter, in canonical
    checkpoint order, which puts w last."""
    out: list[tuple[str, object, str]] = []
    if isinstance(head, ConvStack):
        for l, layer in enumerate(head.layers, start=1):
            out += [(f"conv.{l}.kernel", layer, "kernel"), (f"conv.{l}.bias", layer, "bias")]
    elif isinstance(head, MlpHead):
        for l, layer in enumerate(head.layers, start=1):
            out += [(f"mlp.{l}.W", layer, "W"), (f"mlp.{l}.b", layer, "b")]
    if not isinstance(head, IdentityHead):
        out.append(("w", head, "w"))
    return out


def head_sections(head: Head) -> list[tuple[str, np.ndarray]]:
    """Named parameter arrays of a head, in canonical checkpoint order."""
    return [(name, getattr(owner, attr)) for name, owner, attr in _section_slots(head)]


def head_views(head: Head, flat: Optional[np.ndarray] = None) -> dict[str, np.ndarray]:
    """Views of ``flat``'s leading entries (of a fresh vector without it)
    shaped as the head's sections, by name, in head_sections order."""
    sections = head_sections(head)
    flat = np.empty(sum(arr.size for _, arr in sections)) if flat is None else flat
    views, start = {}, 0
    for name, arr in sections:
        views[name] = flat[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return views


def pack_head(head: Head, flat: np.ndarray) -> None:
    """Copy the head's sections into their ``head_views`` of the float64
    vector ``flat`` and rebind each section to its view, so one elementwise
    update of ``flat`` updates every section."""
    for (_, owner, attr), view in zip(_section_slots(head), head_views(head, flat).values()):
        view[...] = getattr(owner, attr)
        setattr(owner, attr, view)


def section_arrays(spec: ModelSpec, tables: EmbeddingTables) -> dict[str, np.ndarray]:
    """All trainable arrays by section name: the tables the variant owns,
    then the head's sections."""
    return {name: getattr(tables, name) for name in spec.variant.tables} | dict(head_sections(spec.head))


@dataclass
class ParamCount:
    head_sections: list[tuple[str, int]]
    head_total: int
    embedding_sections: list[tuple[str, int]] = field(default_factory=list)
    embedding_total: int = 0


def param_count(spec: ModelSpec, M: Optional[int] = None, N: Optional[int] = None) -> ParamCount:
    """Exact trainable-parameter counts: head sections plus, when table
    dimensions are given, the embedding side."""
    sections = [(name, int(arr.size)) for name, arr in head_sections(spec.head)]
    head_total = sum(c for _, c in sections)
    embed_sections: list[tuple[str, int]] = []
    if M is not None and N is not None:
        rows = {"P": M, "Q": N, "Qp": N}
        embed_sections = [(name, rows[name] * spec.K) for name in spec.variant.tables]
    return ParamCount(
        head_sections=sections,
        head_total=head_total,
        embedding_sections=embed_sections,
        embedding_total=sum(c for _, c in embed_sections),
    )


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = "ONCF1"


def _descriptor(spec: ModelSpec) -> str:
    return (
        f"variant={spec.variant.value},merge={spec.merge.value},head={spec.head_kind.value},"
        f"K={spec.K},alpha={spec.alpha!r},fism_norm={spec.fism_norm}"
    )


def save_checkpoint(spec: ModelSpec, tables: EmbeddingTables, path: str) -> None:
    """Write the model: ASCII header and directory, then raw little-endian
    float64 payloads. Round-trips bit-exactly."""
    sections = list(section_arrays(spec, tables).items())
    header = io.StringIO()
    header.write(f"{_MAGIC} {_descriptor(spec)}\n")
    offset = 0
    payloads = []
    for name, arr in sections:
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        dims = " ".join(str(d) for d in arr.shape)
        line = f"{name} {arr.ndim}" + (f" {dims}" if arr.ndim else "") + f" {offset}\n"
        header.write(line)
        payloads.append(data)
        offset += len(data)
    header.write("\n")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header.getvalue().encode("ascii"))
        for data in payloads:
            fh.write(data)
    os.replace(tmp, path)


def _parse_descriptor(text: str) -> dict[str, str]:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise FormatError(f"bad descriptor entry {part!r}")
        key, value = part.split("=", 1)
        out[key] = value
    return out


def load_checkpoint(path: str) -> tuple[ModelSpec, EmbeddingTables]:
    """Read a checkpoint written by save_checkpoint, validating as it goes.
    It must hold exactly the sections of its variant's tables and its head:
    a missing one is reported first, then any other."""
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise FormatError("truncated header")
    first = blob[:nl].decode("ascii", errors="replace")
    if not first.startswith(_MAGIC + " "):
        raise FormatError(f"bad magic line {first!r}")
    desc = _parse_descriptor(first[len(_MAGIC) + 1 :])
    for key in ("variant", "merge", "head", "K", "alpha", "fism_norm"):
        if key not in desc:
            raise FormatError(f"descriptor missing {key}")

    directory: list[tuple[str, tuple[int, ...], int]] = []
    pos = nl + 1
    while True:
        end = blob.find(b"\n", pos)
        if end < 0:
            raise FormatError("directory not terminated")
        line = blob[pos:end].decode("ascii", errors="replace")
        pos = end + 1
        if line == "":
            break
        parts = line.split()
        try:
            name = parts[0]
            rank = int(parts[1])
            dims = tuple(int(d) for d in parts[2 : 2 + rank])
            offset = int(parts[2 + rank])
            if len(parts) != 3 + rank or any(d < 1 for d in dims) or offset < 0:
                raise ValueError
        except (IndexError, ValueError):
            raise FormatError(f"bad directory line {line!r}") from None
        directory.append((name, dims, offset))

    payload = blob[pos:]
    arrays: dict[str, np.ndarray] = {}
    filled = 0  # the sections tile the payload in directory order
    for name, dims, offset in directory:
        if name in arrays:
            raise FormatError(f"section {name} listed twice")
        if offset != filled:
            raise FormatError(f"section {name} starts at byte {offset}, expected {filled}")
        filled = offset + 8 * math.prod(dims)
        if filled > len(payload):
            raise FormatError(f"section {name} truncated")
        arr = np.frombuffer(payload[offset:filled], dtype="<f8").astype(np.float64)
        if not np.isfinite(arr).all():
            raise FormatError(f"section {name} holds non-finite values")
        arrays[name] = arr.reshape(dims)
    if filled != len(payload):
        raise FormatError(f"{len(payload) - filled} bytes after the last section")

    try:
        variant = Variant(desc["variant"])
        merge_kind = MergeKind(desc["merge"])
        head_kind = HeadKind(desc["head"])
        K = int(desc["K"])
        alpha = float(desc["alpha"])
        if not 0 <= alpha < math.inf:
            raise ValueError(f"alpha={desc['alpha']} is not a finite number >= 0")
    except ValueError as exc:
        raise FormatError(f"bad descriptor value: {exc}") from None

    def section(name: str) -> np.ndarray:
        if name not in arrays:
            raise FormatError(f"section {name} missing")
        return arrays[name]

    owned = {name: section(name) for name in variant.tables}
    tables = EmbeddingTables(P=owned.get("P"), Q=owned["Q"], Qp=owned.get("Qp"))

    head: Head
    if head_kind is HeadKind.CNN:
        depth = sum(n.startswith("conv.") and n.endswith(".kernel") for n in arrays)
        layers = [ConvLayer(section(f"conv.{l}.kernel"), section(f"conv.{l}.bias")) for l in range(1, depth + 1)]
        head = ConvStack(layers=layers, w=section("w"))
    elif head_kind is HeadKind.MLP:
        depth = sum(n.startswith("mlp.") and n.endswith(".W") for n in arrays)
        layers = [MlpLayer(section(f"mlp.{l}.W"), section(f"mlp.{l}.b")) for l in range(1, depth + 1)]
        head = MlpHead(layers=layers, w=section("w"))
    elif head_kind is HeadKind.LINEAR:
        head = LinearHead(w=section("w"))
    else:
        head = IdentityHead()
    known = set(owned) | {name for name, _ in head_sections(head)}
    for name in arrays:
        if name not in known:
            raise FormatError(f"unexpected section {name} for variant={variant.value}, head={head_kind.value}")

    try:
        spec = ModelSpec(variant=variant, merge=merge_kind, head=head, K=K, fism_norm=desc["fism_norm"], alpha=alpha)
    except ConfigurationError as exc:
        raise FormatError(f"inconsistent checkpoint: {exc}") from None
    if any(t.shape[1:] != (K,) for t in owned.values()):
        raise FormatError(f"section P/Q/Qp width does not match K={K}")
    return spec, tables
