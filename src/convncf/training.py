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
from typing import Iterable, Optional, Sequence

import numpy as np

from convncf.data import SplitSet, derive_seed, minibatches, sample_negative
from convncf.embeddings import (
    EmbeddingTables,
    FISM_NORM_EXCLUDED,
    Variant,
    init_tables,
    item_embedding,
    scatter_user_gradient,
    user_embedding,
)
from convncf.evaluation import EvalResult, evaluate
from convncf.model import (
    IdentityHead,
    MergeKind,
    ModelSpec,
    head_backward,
    head_forward,
    merge,
    merge_backward,
    section_arrays,
)

LN2 = math.log(2.0)


@dataclass
class TrainConfig:
    """Hyper-parameter surface of a training run. Defaults sit at the tuned
    centers of the usual search grids; lambda4 (the output projection) is the
    one that moves results the most."""

    lr_embed: float = 0.005
    lr_net: float = 0.01
    lambda1: float = 1e-6
    lambda2: float = 1e-6
    lambda3: float = 10.0
    lambda4: float = 1.0
    batch_size: int = 512
    epochs: int = 30
    seed: int = 42
    fism_norm: str = FISM_NORM_EXCLUDED
    adagrad_epsilon: float = 1e-6
    epochs_pretrain: int = 20
    lambda_pretrain: float = 1e-6

    def validate(self) -> None:
        if self.lr_embed <= 0 or self.lr_net <= 0:
            raise ValueError("learning rates must be > 0")
        if min(self.lambda1, self.lambda2, self.lambda3, self.lambda4) < 0:
            raise ValueError("regularization strengths must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.epochs_pretrain < 0:
            raise ValueError("epochs_pretrain must be >= 0")
        if self.adagrad_epsilon <= 0:
            raise ValueError("adagrad_epsilon must be > 0")


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

# AdagradState: section name -> accumulator array, same shape as the parameter.
AdagradState = dict


def init_adagrad(spec: ModelSpec, tables: EmbeddingTables) -> AdagradState:
    return {name: np.zeros_like(arr) for name, arr in section_arrays(spec, tables).items()}


def adagrad_step(param: np.ndarray, grad: np.ndarray, state: np.ndarray, lr: float, epsilon: float) -> None:
    """In-place: state += grad^2; param -= lr * grad / (sqrt(state) + epsilon).

    Works on whole arrays and on gathered row blocks alike, so sparse table
    updates touch only the rows whose gradients exist.
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
    history: list[int],
):
    """Embed, merge and score the positive and the negative of one triple
    as a batch of two; returns (FU, FI, merged, head activations, scores)."""
    FU = np.array([user_embedding(tables, spec.variant, u, t, history, norm=spec.fism_norm) for t in (i, j)])
    FI = np.array([item_embedding(tables, i), item_embedding(tables, j)])
    merged = merge(spec.merge, FU, FI)
    acts, y = head_forward(spec, merged)
    return FU, FI, merged, acts, y


def compute_triple_gradients(
    spec: ModelSpec,
    tables: EmbeddingTables,
    u: int,
    i: int,
    j: int,
    history: Iterable[int] = (),
) -> TripleGrads:
    """Forward both branches of one triple and backpropagate the plain
    (regularization-free) pairwise loss through every shared parameter."""
    history = list(history)
    FU, FI, merged, acts, y = triple_forward(spec, tables, u, i, j, history)
    y_pos, y_neg = float(y[0]), float(y[1])
    loss = bpr_loss(y_pos, y_neg)
    head_grads, d_merged = head_backward(spec, merged, acts, np.array(bpr_grad(y_pos, y_neg)))
    d_FU, d_FI = merge_backward(spec.merge, FU, FI, d_merged)
    table_grads = scatter_user_gradient(spec.variant, u, (i, j), history, d_FU, tables.alpha, spec.fism_norm)
    table_grads["Q"] = (np.array([i, j]), d_FI)
    return TripleGrads(loss=loss, y_pos=y_pos, y_neg=y_neg, head=head_grads, tables=table_grads)


def train_step(
    spec: ModelSpec,
    tables: EmbeddingTables,
    triple: tuple[int, int, int],
    config: TrainConfig,
    states: AdagradState,
    regularize: bool,
    history: Iterable[int] = (),
    params: Optional[dict[str, np.ndarray]] = None,
) -> float:
    """One triple: gradients from both branches, touched-parameter L2,
    Adagrad application. Returns the pre-update pairwise loss. A caller that
    runs many steps passes ``params = section_arrays(spec, tables)`` once.

    Each table section steps once over its touched rows (gather, step,
    write back); the rows of a section are distinct because a sampled
    negative is never the positive.
    """
    u, i, j = triple
    g = compute_triple_gradients(spec, tables, u, i, j, history)
    if params is None:
        params = section_arrays(spec, tables)

    for name, grad in g.head.items():
        arr = params[name]
        lam = config.lambda4 if name == "w" else config.lambda3
        if regularize and lam:
            grad = grad + 2.0 * lam * arr
        adagrad_step(arr, grad, states[name], config.lr_net, config.adagrad_epsilon)

    for name, (rows, grad) in g.tables.items():
        table, state = params[name], states[name]
        block, acc = table.take(rows, axis=0), state.take(rows, axis=0)
        lam = config.lambda2 if name == "Q" else config.lambda1
        if regularize and lam:
            grad = grad + 2.0 * lam * block
        adagrad_step(block, grad, acc, config.lr_embed, config.adagrad_epsilon)
        table[rows], state[rows] = block, acc
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
    params = section_arrays(spec, tables)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, seed_namespace + ".shuffle"))
    neg_rng = np.random.default_rng(derive_seed(config.seed, seed_namespace + ".negatives"))
    needs_history = spec.variant in (Variant.FISM, Variant.SVDPP)
    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        regularize = epoch > 1
        total, count = 0.0, 0
        for us, its in minibatches(train_ds, config.batch_size, shuffle_rng):
            for u, i in zip(us.tolist(), its.tolist()):
                j = sample_negative(train_ds, u, neg_rng)
                history = train_ds.items_of(u) if needs_history else ()
                loss = train_step(spec, tables, (u, i, j), config, states, regularize, history, params)
                if not math.isfinite(loss):
                    raise NonFiniteError(f"epoch {epoch}: loss {loss} at triple (u, i, j) = ({u}, {i}, {j})")
                total += loss
                count += 1
        for name, arr in params.items():
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
    records = _run_epochs(spec, tables, splits, config, seed_namespace="train")
    return TrainResult(spec=spec, tables=tables, history=records)


def pretrain(
    variant: Variant,
    splits: SplitSet,
    config: TrainConfig,
    K: int,
    alpha: float = 0.5,
) -> tuple[EmbeddingTables, list[EpochRecord]]:
    """Train the shallow (inner-product) counterpart of a variant and return
    its tables for warm-starting the deep model."""
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
        return tables, []
    shallow = replace(
        config,
        lambda1=config.lambda_pretrain,
        lambda2=config.lambda_pretrain,
        lambda3=0.0,
        lambda4=0.0,
        epochs=config.epochs_pretrain,
    )
    records = _run_epochs(spec, tables, splits, shallow, seed_namespace="pretrain")
    return tables, records


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
