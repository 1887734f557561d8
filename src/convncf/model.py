"""Model assembly: merge function x prediction head, checkpoints, parameter counts.

A model is a ``ModelSpec`` (architecture plus head parameters) together with
``EmbeddingTables``. The merge kind decides how the two embeddings combine;
the head maps the merged value to a scalar score:

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
two, gradcheck runs that same forward, and ``predict_batch`` scores one user
against many candidates in blocks of a few MiB, spread over every usable
CPU, through the same ``head_forward``. Each row's result is bit-identical
to that row scored alone, except with an MLP head: each of its layers is one
matrix product over the whole batch, which reads the weight matrix once per
batch and agrees with the row alone to rounding.

Gradients for head parameters are summed over the batch and returned as a
dict keyed by section name
(``conv.<l>.kernel``, ``conv.<l>.bias``, ``mlp.<l>.W``, ``mlp.<l>.b``,
``w``); the same names address parameters in checkpoints and in the
finite-difference report.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Iterable, Optional, Union

import numpy as np

from convncf.embeddings import EmbeddingTables, FISM_NORM_EXCLUDED, FISM_NORMS, Variant, history_terms, user_rows
from convncf.tensor import conv2x2s2_backward, conv2x2s2_forward, from_quadtree, to_quadtree


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
    """Architecture record: embedding variant, merge kind, head parameters."""

    variant: Variant
    merge: MergeKind
    head: Head
    K: int
    fism_norm: str = FISM_NORM_EXCLUDED

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


def merge(kind: MergeKind, FU: np.ndarray, FI: np.ndarray):
    """Combine rows of user and item embeddings, both ``(B, K)``, into
    ``(B, K)`` vectors, ``(B, 2K)`` vectors, ``(B, K, K)`` maps or ``(B,)``
    scalars. A single user row ``(1, K)`` is shared by every item row."""
    if kind is MergeKind.ELEMENTWISE:
        return FU * FI
    if kind is MergeKind.CONCAT:
        return np.concatenate([np.broadcast_to(FU, FI.shape), FI], axis=1)
    if kind is MergeKind.OUTER:
        return np.einsum("nk,nl->nkl", FU, FI)
    if kind is MergeKind.INNER:
        return np.vecdot(FU, FI)
    raise ValueError(f"unknown merge kind {kind!r}")


def merge_backward(kind: MergeKind, FU: np.ndarray, FI: np.ndarray, d_merged):
    """Adjoint of merge: per-row cotangents for both embeddings."""
    if kind is MergeKind.ELEMENTWISE:
        return d_merged * FI, d_merged * FU
    if kind is MergeKind.CONCAT:
        k = FU.shape[1]
        return d_merged[:, :k], d_merged[:, k:]
    if kind is MergeKind.OUTER:
        return (d_merged @ FI[..., None])[..., 0], (d_merged.transpose(0, 2, 1) @ FU[..., None])[..., 0]
    if kind is MergeKind.INNER:
        return d_merged[:, None] * FI, d_merged[:, None] * FU
    raise ValueError(f"unknown merge kind {kind!r}")


# ---------------------------------------------------------------------------
# heads
#
# Forward passes take a batch of merged values and return one score per row.
# A tower head (conv or MLP) caches one list of activations: acts[0] is the
# head input and acts[l] is layer l's relu output, which is also layer
# l + 1's input. Backward passes mask on acts[l] > 0, the same mask as the
# pre-activation's sign, so no pre-activation is kept. They take one score
# cotangent per row; they return the head gradients summed over the batch
# and the per-row cotangents of the merged values. The conv and linear heads
# form gradients per row, then sum, so a batch of two gives exactly the sum
# of two single-row passes; the MLP head sums inside one matrix product per
# layer, which equals that sum to rounding.


def convncf_forward(stack: ConvStack, E: np.ndarray):
    """Run the tower over a batch of ``(B, K, K)`` interaction maps, gathered
    once into quadtree order; returns (acts, scores)."""
    acts = [to_quadtree(E[..., None])]
    for layer in stack.layers:
        acts.append(conv2x2s2_forward(acts[-1], layer.kernel, layer.bias))
    return acts, np.vecdot(acts[-1].reshape(E.shape[0], stack.C), stack.w)


def convncf_backward(stack: ConvStack, acts: list[np.ndarray], d_y: np.ndarray):
    """Adjoint of convncf_forward; returns (head grads by section, d_E)."""
    g = acts[-1].reshape(d_y.shape[0], stack.C)
    grads: dict[str, np.ndarray] = {"w": (d_y[:, None] * g).sum(axis=0)}
    d_act = (d_y[:, None] * stack.w)[:, None, :]
    for l in range(stack.depth, 0, -1):
        layer = stack.layers[l - 1]
        d_act, d_kernel, d_bias = conv2x2s2_backward(acts[l - 1], layer.kernel, acts[l], d_act)
        grads[f"conv.{l}.kernel"] = d_kernel.sum(axis=0)
        grads[f"conv.{l}.bias"] = d_bias.sum(axis=0)
    return grads, from_quadtree(d_act)[..., 0]


def mlp_forward(head: MlpHead, X0: np.ndarray):
    """Run the tower over ``(B, n)`` rows, one matrix product per layer over
    the whole batch; returns (acts, scores)."""
    acts = [X0]
    for layer in head.layers:
        X = acts[-1] @ layer.W.T
        X += layer.b
        acts.append(np.maximum(X, 0.0, out=X))
    return acts, np.vecdot(acts[-1], head.w)


def mlp_backward(head: MlpHead, acts: list[np.ndarray], d_y: np.ndarray):
    """Adjoint of mlp_forward, two matrix products per layer over the whole
    batch; returns (head grads by section, d_X0)."""
    grads: dict[str, np.ndarray] = {"w": (d_y[:, None] * acts[-1]).sum(axis=0)}
    d_X = d_y[:, None] * head.w
    for l in range(len(head.layers), 0, -1):
        layer = head.layers[l - 1]
        d_pre = np.where(acts[l] > 0, d_X, 0.0)
        grads[f"mlp.{l}.W"] = d_pre.T @ acts[l - 1]
        grads[f"mlp.{l}.b"] = d_pre.sum(axis=0)
        d_X = d_pre @ layer.W
    return grads, d_X


def head_forward(spec: ModelSpec, merged):
    """Dispatch a batch of merged values through the head; returns
    (acts, scores of shape (B,)), with acts None for a head without layers."""
    head = spec.head
    if isinstance(head, ConvStack):
        return convncf_forward(head, merged)
    if isinstance(head, MlpHead):
        return mlp_forward(head, merged.reshape(merged.shape[0], head.in_width))
    if isinstance(head, LinearHead):
        return None, np.vecdot(merged, head.w)
    return None, merged


def head_backward(spec: ModelSpec, merged, acts, d_y: np.ndarray):
    """Adjoint of head_forward; returns (head grads by section summed over
    the batch, per-row d_merged)."""
    head = spec.head
    if isinstance(head, ConvStack):
        return convncf_backward(head, acts, d_y)
    if isinstance(head, MlpHead):
        grads, d_X0 = mlp_backward(head, acts, d_y)
        return grads, d_X0.reshape(merged.shape)
    if isinstance(head, LinearHead):
        return {"w": (d_y[:, None] * merged).sum(axis=0)}, d_y[:, None] * head.w
    return {}, d_y


# ---------------------------------------------------------------------------
# scoring

# Bytes of first-layer head activations per scoring block, which bound its
# memory: 16 rows of the K=64 C=32 tower. Blocks run on one pool thread per
# usable CPU (numpy's products release the GIL; no thread starts before a
# call has two blocks). On a 2-CPU Xeon (2 MiB L2 per core, one BLAS thread)
# flagship recommend took 18 ms, against 32 ms for 16 MiB blocks and 31 ms
# for these on one CPU; 2 MiB blocks took 20 ms, 8 MiB 18 ms at +12 MB RSS,
# and 1 MiB cut training ~590 -> ~350 triples/s (glibc mmap/trim thresholds).
SCORE_BLOCK_BYTES = 4 * 2**20
SCORE_WORKERS = len(os.sched_getaffinity(0))
_SCORE_POOL = ThreadPoolExecutor(max_workers=SCORE_WORKERS, thread_name_prefix="convncf-score")


def _block_rows(spec: ModelSpec) -> int:
    head = spec.head
    if isinstance(head, ConvStack):
        width = (spec.K // 2) ** 2 * head.C
    elif isinstance(head, MlpHead):
        width = head.layers[0].W.shape[0]
    else:
        width = spec.K
    return max(1, SCORE_BLOCK_BYTES // (8 * width))


def predict_batch(
    spec: ModelSpec,
    tables: EmbeddingTables,
    u: int,
    items: np.ndarray,
    history: Iterable[int] = (),
) -> np.ndarray:
    """Score candidate items for one user, in blocks of rows.

    The one public scoring entry, so it checks ``u``, the candidate items
    and the history items (numpy would wrap a negative index). The user row
    is built once with no target exclusion, exact whenever no candidate sits
    in the history (the ranking protocol guarantees that). Every score is
    bit-identical to that candidate scored alone, except with an MLP head,
    whose matrix products over a block agree with the candidate alone to
    rounding.
    """
    if not 0 <= u < tables.M:
        raise IndexError(f"user index {u} out of range [0, {tables.M})")
    terms = None if spec.variant is Variant.MF else history_terms(history)
    if terms is not None and terms.size and (terms[0] < 0 or terms[-1] >= tables.N):
        raise IndexError("history item index out of range")
    items = np.asarray(items, dtype=np.int64)
    if items.size and items.view(np.uint64).max() >= tables.N:  # a negative index reads as >= 2**63
        bad = items[(items < 0) | (items >= tables.N)][0]
        raise IndexError(f"candidate item index {bad} out of range [0, {tables.N})")
    fU = user_rows(tables, spec.variant, u, terms, norm=spec.fism_norm)
    score = partial(_score_block, spec, fU, tables.Q)
    rows = _block_rows(spec)
    if items.shape[0] <= rows:
        return score(items)
    blocks = [items[start : start + rows] for start in range(0, items.shape[0], rows)]
    return np.concatenate(list((map if SCORE_WORKERS == 1 else _SCORE_POOL.map)(score, blocks)))


def _score_block(spec: ModelSpec, FU: np.ndarray, Q: np.ndarray, items: np.ndarray) -> np.ndarray:
    return head_forward(spec, merge(spec.merge, FU, Q[items]))[1]


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


def pack_head(head: Head) -> np.ndarray:
    """Copy the head's sections, in head_sections order, into one float64
    vector and rebind each section to its view of it; returns the vector, so
    one elementwise update of it updates every section."""
    slots = _section_slots(head)
    flat = np.empty(sum(getattr(owner, attr).size for _, owner, attr in slots))
    start = 0
    for _, owner, attr in slots:
        arr = getattr(owner, attr)
        view = flat[start : start + arr.size].reshape(arr.shape)
        view[...] = arr
        setattr(owner, attr, view)
        start += arr.size
    return flat


def section_arrays(spec: ModelSpec, tables: EmbeddingTables) -> dict[str, np.ndarray]:
    """All trainable arrays by section name, embedding tables included."""
    out: dict[str, np.ndarray] = {"P": tables.P, "Q": tables.Q}
    if tables.Qp is not None:
        out["Qp"] = tables.Qp
    out.update(dict(head_sections(spec.head)))
    return out


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
        embed_sections.append(("P", M * spec.K))
        embed_sections.append(("Q", N * spec.K))
        if spec.variant in (Variant.FISM, Variant.SVDPP):
            embed_sections.append(("Qp", N * spec.K))
    return ParamCount(
        head_sections=sections,
        head_total=head_total,
        embedding_sections=embed_sections,
        embedding_total=sum(c for _, c in embed_sections),
    )


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = "ONCF1"


def _descriptor(spec: ModelSpec, tables: EmbeddingTables) -> str:
    return (
        f"variant={spec.variant.value},merge={spec.merge.value},head={spec.head_kind.value},"
        f"K={spec.K},alpha={tables.alpha!r},fism_norm={spec.fism_norm}"
    )


def save_checkpoint(spec: ModelSpec, tables: EmbeddingTables, path: str) -> None:
    """Write the model: ASCII header and directory, then raw little-endian
    float64 payloads. Round-trips bit-exactly."""
    sections = list(section_arrays(spec, tables).items())
    header = io.StringIO()
    header.write(f"{_MAGIC} {_descriptor(spec, tables)}\n")
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
    """Read a checkpoint written by save_checkpoint, validating as it goes."""
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

    tables = EmbeddingTables(P=section("P"), Q=section("Q"), Qp=arrays.get("Qp"), alpha=alpha)
    if variant in (Variant.FISM, Variant.SVDPP) and tables.Qp is None:
        raise FormatError("section Qp missing for history-based variant")

    head: Head
    if head_kind is HeadKind.CNN:
        depth = sum(n.endswith(".kernel") for n in arrays)
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

    try:
        spec = ModelSpec(variant=variant, merge=merge_kind, head=head, K=K, fism_norm=desc["fism_norm"])
    except ConfigurationError as exc:
        raise FormatError(f"inconsistent checkpoint: {exc}") from None
    if any(t is not None and t.shape[1:] != (K,) for t in (tables.P, tables.Q, tables.Qp)):
        raise FormatError(f"section P/Q/Qp width does not match K={K}")
    return spec, tables
