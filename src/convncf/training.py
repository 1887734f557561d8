"""Pairwise ranking training: BPR loss, per-triple Adagrad, two-group L2.

The loss for a triple (u, i, j) with i observed and j not is
-ln sigmoid(y_ui - y_uj), evaluated through the softplus of the negated
margin so large margins never overflow. Regularization splits into four
groups: lambda1 on the user-representation tables (P and the history table
Qp), lambda2 on the target-item table Q, lambda3 on the hidden tower
(convolution kernels and biases, or MLP layers), lambda4 on the output
projection w. Embedding tables step with lr_embed, the tower and w with
lr_net, all under Adagrad with accumulators starting at zero.

L2 gradients are added per step for the parameters that step touches (the
triple's embedding rows; every tower parameter), not as a global penalty
sweep. The first epoch of any run disables regularization entirely so the
model fits the data before shrinkage kicks in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from convncf.data import SplitSet, derive_seed, minibatches, sample_negative
from convncf.embeddings import (
    EmbeddingTables,
    FISM_NORM_EXCLUDED,
    FISM_NORMS,
    Variant,
    history_terms,
    init_tables,
    item_embedding,
    scatter_user_gradient,
    user_rows,
)
from convncf.evaluation import EvalResult, evaluate
from convncf.model import (
    IdentityHead,
    MergeKind,
    ModelSpec,
    head_backward,
    head_forward,
    head_sections,
    merge,
    merge_backward,
    pack_head,
    section_arrays,
)

LN2 = math.log(2.0)


@dataclass
class TrainConfig:
    """Hyper-parameter surface of a training run; the CLI's RunConfig adds
    the data, architecture and run-control keys on top. Defaults sit at the
    tuned centers of the usual search grids."""

    lr_embed: float = 0.005
    lr_net: float = 0.01
    lambda1: float = 1e-6  # user-side tables (P, Qp)
    lambda2: float = 1e-6  # target-item table (Q)
    lambda3: float = 10.0  # hidden tower
    lambda4: float = 1.0  # output projection; moves results the most
    batch_size: int = 512
    epochs: int = 30
    seed: int = 42
    fism_norm: str = FISM_NORM_EXCLUDED  # or full_set
    adagrad_epsilon: float = 1e-6
    epochs_pretrain: int = 20
    lambda_pretrain: float = 1e-6

    def validate(self) -> None:
        """Raise ValueError naming the first training key out of range."""
        for key in ("lr_embed", "lr_net", "adagrad_epsilon"):
            check_bound(self, key, 0, strict=True)
        for key in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda_pretrain", "epochs_pretrain"):
            check_bound(self, key, 0)
        for key in ("batch_size", "epochs"):
            check_bound(self, key, 1)
        if self.fism_norm not in FISM_NORMS:
            raise ValueError(f"key fism_norm: unknown value {self.fism_norm!r}")


def check_bound(cfg, key: str, bound: float, strict: bool = False) -> None:
    """Raise ValueError unless ``cfg.<key>`` is >= ``bound`` (> when
    ``strict``) and, for a float, finite."""
    value = getattr(cfg, key)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"key {key}: must be finite, got {value!r}")
    if value < bound or (strict and value == bound):
        raise ValueError(f"key {key}: must be {'>' if strict else '>='} {bound}")


# ---------------------------------------------------------------------------
# loss


def bpr_loss(y_pos: float, y_neg: float) -> float:
    """-ln sigmoid(y_pos - y_neg), via softplus(-(margin)); always >= 0."""
    return float(np.logaddexp(0.0, -(y_pos - y_neg)))


def bpr_grad(y_pos: float, y_neg: float) -> tuple[float, float]:
    """d loss / d y_pos and d y_neg. Both shrink to 0 as the margin grows."""
    coeff = _sigmoid(-(y_pos - y_neg))
    return -coeff, coeff


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


# ---------------------------------------------------------------------------
# optimizer


class AdagradState(dict):
    """Adagrad accumulators, all starting at zero: one per embedding table,
    by section name, and ``head_acc`` for the packed head (``pack_head``).
    ``head`` is the head's one parameter vector, whose sections, named
    ``head_names``, are views of it; ``head[:tower]`` is the hidden tower
    and ``head[tower:]`` the output projection w."""

    def __init__(self, accs: dict[str, np.ndarray], spec: ModelSpec):
        super().__init__(accs)
        self.head = pack_head(spec.head)
        self.head_acc = np.zeros_like(self.head)
        self.head_names = [name for name, _ in head_sections(spec.head)]
        self.tower = self.head.size - (spec.head.w.size if self.head_names else 0)


def init_adagrad(spec: ModelSpec, tables: EmbeddingTables) -> AdagradState:
    """Zero accumulators for a run; packs the head, which rebinds its
    sections, so take any reference to them after this call."""
    accs = {"P": tables.P, "Q": tables.Q, "Qp": tables.Qp}
    return AdagradState({name: np.zeros_like(arr) for name, arr in accs.items() if arr is not None}, spec)


def adagrad_step(param: np.ndarray, grad: np.ndarray, state: np.ndarray, lr: float, epsilon: float) -> None:
    """In-place: state += grad^2; param -= lr * grad / (sqrt(state) + epsilon).

    Works on whole arrays, row views and gathered row blocks alike, so sparse
    table updates touch only the rows whose gradients exist.
    """
    state += grad * grad
    param -= lr * grad / (np.sqrt(state) + epsilon)


# ---------------------------------------------------------------------------
# per-triple gradients


@dataclass
class TripleGrads:
    loss: float
    y_pos: float
    y_neg: float
    head: dict[str, np.ndarray]
    tables: dict[str, tuple[np.ndarray, np.ndarray]]  # section -> (rows, grads)


def triple_forward(
    spec: ModelSpec,
    tables: EmbeddingTables,
    u: int,
    i: int,
    j: int,
    terms: np.ndarray,
):
    """Embed, merge and score the positive and the negative of one triple
    as a batch of two, given the user's ``history_terms``; returns (FU, FI,
    merged, head activations, scores)."""
    FU = user_rows(tables, spec.variant, u, (i, j), terms, spec.fism_norm)
    FI = item_embedding(tables, (i, j))
    merged = merge(spec.merge, FU, FI)
    acts, y = head_forward(spec, merged)
    return FU, FI, merged, acts, y


def compute_triple_gradients(
    spec: ModelSpec,
    tables: EmbeddingTables,
    u: int,
    i: int,
    j: int,
    history: Sequence[int] = (),
) -> TripleGrads:
    """Forward both branches of one triple and backpropagate the plain
    (regularization-free) pairwise loss through every shared parameter."""
    terms = history_terms(history) if spec.variant is not Variant.MF else None
    FU, FI, merged, acts, y = triple_forward(spec, tables, u, i, j, terms)
    y_pos, y_neg = float(y[0]), float(y[1])
    loss = bpr_loss(y_pos, y_neg)
    head_grads, d_merged = head_backward(spec, merged, acts, np.array(bpr_grad(y_pos, y_neg)))
    d_FU, d_FI = merge_backward(spec.merge, FU, FI, d_merged)
    table_grads = scatter_user_gradient(spec.variant, u, (i, j), terms, d_FU, tables.alpha, spec.fism_norm)
    table_grads["Q"] = (np.array([i, j]), d_FI)
    return TripleGrads(loss=loss, y_pos=y_pos, y_neg=y_neg, head=head_grads, tables=table_grads)


def train_step(
    spec: ModelSpec,
    tables: EmbeddingTables,
    triple: tuple[int, int, int],
    config: TrainConfig,
    states: AdagradState,
    regularize: bool,
    history: Sequence[int] = (),
) -> float:
    """One triple: gradients from both branches, touched-parameter L2,
    Adagrad application. Returns the pre-update pairwise loss.

    The packed head takes one step. The user row P[u] steps through its row
    view; Q and Qp step once over their touched rows (gather, step, write
    back), which are distinct because a sampled negative is never the
    positive.
    """
    u, i, j = triple
    g = compute_triple_gradients(spec, tables, u, i, j, history)

    if states.head_names:
        grad = np.concatenate([g.head[name] for name in states.head_names], axis=None)
        head, t = states.head, states.tower
        if regularize and config.lambda3:
            grad[:t] += 2.0 * config.lambda3 * head[:t]
        if regularize and config.lambda4:
            grad[t:] += 2.0 * config.lambda4 * head[t:]
        adagrad_step(states.head, grad, states.head_acc, config.lr_net, config.adagrad_epsilon)

    for name, (rows, grad) in g.tables.items():
        table, acc = getattr(tables, name), states[name]
        lam = config.lambda2 if name == "Q" else config.lambda1
        if name == "P":
            rows, grad = u, grad[0]
        block, block_acc = table[rows], acc[rows]
        if regularize and lam:
            grad = grad + 2.0 * lam * block
        adagrad_step(block, grad, block_acc, config.lr_embed, config.adagrad_epsilon)
        if name != "P":
            table[rows], acc[rows] = block, block_acc
    return g.loss


# ---------------------------------------------------------------------------
# epoch loops


class NonFiniteError(ArithmeticError):
    """A training loss or parameter became NaN or infinite."""


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    val: EvalResult
    test: EvalResult


@dataclass
class TrainResult:
    spec: ModelSpec
    tables: EmbeddingTables
    history: list[EpochRecord] = field(default_factory=list)


def _run_epochs(
    spec: ModelSpec,
    tables: EmbeddingTables,
    splits: SplitSet,
    config: TrainConfig,
    seed_namespace: str,
) -> list[EpochRecord]:
    """Train ``config.epochs`` epochs, evaluating after each. Raises
    NonFiniteError naming the epoch, and the triple when it is the loss that
    went non-finite."""
    train_ds = splits.train
    states = init_adagrad(spec, tables)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, seed_namespace + ".shuffle"))
    neg_rng = np.random.default_rng(derive_seed(config.seed, seed_namespace + ".negatives"))
    needs_history = spec.variant in (Variant.FISM, Variant.SVDPP)
    bounds = train_ds.indptr.tolist()
    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        regularize = epoch > 1
        total, count = 0.0, 0
        for us, its in minibatches(train_ds, config.batch_size, shuffle_rng):
            js = sample_negative(train_ds, us, neg_rng)
            for u, i, j in zip(us.tolist(), its.tolist(), js.tolist()):
                history = train_ds.items[bounds[u] : bounds[u + 1]] if needs_history else ()
                loss = train_step(spec, tables, (u, i, j), config, states, regularize, history)
                if not math.isfinite(loss):
                    raise NonFiniteError(f"epoch {epoch}: loss {loss} at triple (u, i, j) = ({u}, {i}, {j})")
                total += loss
                count += 1
        for name, arr in section_arrays(spec, tables).items():
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"epoch {epoch}: section {name} holds non-finite values")
        mean_loss = total / max(count, 1)
        val = evaluate(spec, tables, splits, which="val")
        test = evaluate(spec, tables, splits, which="test")
        records.append(EpochRecord(epoch=epoch, mean_loss=mean_loss, val=val, test=test))
    return records


def train(
    spec: ModelSpec,
    tables: EmbeddingTables,
    splits: SplitSet,
    config: TrainConfig,
) -> TrainResult:
    """Full run: epoch 1 with all lambdas zeroed, then the configured ones;
    validation and test evaluated after every epoch."""
    config.validate()
    records = _run_epochs(spec, tables, splits, config, seed_namespace="train")
    return TrainResult(spec=spec, tables=tables, history=records)


def pretrain(
    variant: Variant,
    splits: SplitSet,
    config: TrainConfig,
    K: int,
    alpha: float = 0.5,
) -> TrainResult:
    """Train the shallow (inner-product) counterpart of a variant; its
    tables warm-start the deep model."""
    config.validate()
    tables = init_tables(
        splits.train.M,
        splits.train.N,
        K,
        variant,
        derive_seed(config.seed, "init"),
        alpha=alpha,
    )
    spec = ModelSpec(
        variant=variant,
        merge=MergeKind.INNER,
        head=IdentityHead(),
        K=K,
        fism_norm=config.fism_norm,
    )
    if config.epochs_pretrain == 0:
        return TrainResult(spec=spec, tables=tables)
    shallow = replace(
        config,
        lambda1=config.lambda_pretrain,
        lambda2=config.lambda_pretrain,
        lambda3=0.0,
        lambda4=0.0,
        epochs=config.epochs_pretrain,
    )
    records = _run_epochs(spec, tables, splits, shallow, seed_namespace="pretrain")
    return TrainResult(spec=spec, tables=tables, history=records)


# ---------------------------------------------------------------------------
# metric history file

METRICS_HEADER = "epoch,split,hr@5,hr@10,hr@20,ndcg@5,ndcg@10,ndcg@20,loss"


def format_metric_rows(record: EpochRecord) -> list[str]:
    rows = []
    for split_name, res in (("val", record.val), ("test", record.test)):
        cells = [str(record.epoch), split_name]
        cells += [repr(res.hr[k]) for k in (5, 10, 20)]
        cells += [repr(res.ndcg[k]) for k in (5, 10, 20)]
        cells.append(repr(record.mean_loss))
        rows.append(",".join(cells))
    return rows


def write_metrics_csv(history: Sequence[EpochRecord], path: str) -> None:
    """One row per epoch per split; floats printed with full round-trip
    precision so identical runs produce identical bytes."""
    lines = [METRICS_HEADER]
    for record in history:
        lines.extend(format_metric_rows(record))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
