"""Pairwise ranking training: BPR loss, per-triple Adagrad, two-group L2.

The loss for a triple (u, i, j) with i observed and j not is
-ln sigmoid(y_ui - y_uj), evaluated through the softplus of the negated
margin so large margins never overflow. Regularization splits into four
groups: lambda1 on the user-representation tables the variant owns (P and
the history table Qp), lambda2 on the target-item table Q, lambda3 on the
hidden tower (convolution kernels and biases, or MLP layers), lambda4 on
the output projection w. Embedding tables step with lr_embed, the tower and
w with lr_net, all under Adagrad with accumulators starting at zero.

L2 gradients cover what a step touches (the triple's embedding rows, every
head parameter), not a global sweep; one elementwise pass over one vector
(``AdagradState``) adds them and steps. The first epoch of any run disables
regularization so the model fits the data before shrinkage kicks in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from convncf.data import SplitSet, derive_seed, minibatches, sample_negative
from convncf.embeddings import (
    EmbeddingTables,
    FISM_NORM_EXCLUDED,
    Variant,
    init_tables,
    scatter_user_gradient,
    user_rows,
)
from convncf.evaluation import DEFAULT_KS, EvalResult, evaluate
from convncf.model import (
    ConvWork,
    IdentityHead,
    MergeKind,
    ModelSpec,
    head_backward,
    head_forward,
    head_sections,
    head_views,
    merge,
    merge_backward,
    pack_head,
    section_arrays,
    tower_work,
)

LN2 = math.log(2.0)
# Entries per part of a step's pass: 128 KiB per operand, so a part's
# operations run in cache. On a 2-CPU Xeon one K=64 MLP-over-OUTER step
# (8.4M head entries) takes ~105 ms this way, ~190 ms in whole passes.
HEAD_STEP_ENTRIES = 1 << 14


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
    """Adagrad state, every accumulator starting at zero: one per table the
    variant owns, by name, and ``acc``, laid out as ``params`` and ``grad``
    are: the packed head (``size`` entries, ``tower`` of hidden tower, then
    w), then a slot per table row a step touches: P[u], Q[i] and Q[j], and
    ``history_rows`` rows of Qp (default every item). ``grads`` holds the
    views of ``grad`` by section name: the head's and each table's ``(rows,
    K)`` slot; ``slots`` each slot's start and views of ``params`` and
    ``acc``. ``work`` is a conv head's ConvWork for a triple's two rows (None
    for other heads), so a run allocates its tower's buffers once. Packs the
    head, rebinding its sections: take them after this."""

    def __init__(self, spec: ModelSpec, tables: EmbeddingTables, history_rows: Optional[int] = None):
        super().__init__({name: np.zeros_like(getattr(tables, name)) for name in spec.variant.tables})
        self.size = size = sum(arr.size for _, arr in head_sections(spec.head))
        self.tower = size - (spec.head.w.size if size else 0)
        history_rows = tables.N if history_rows is None else min(history_rows, tables.N)
        counts = {name: {"P": 1, "Q": 2, "Qp": history_rows}[name] for name in self}
        length = size + tables.K * sum(counts.values())
        self.params, self.acc, self.grad = np.empty(length), np.zeros(length), np.empty(length)
        pack_head(spec.head, self.params)
        self.grads = head_views(spec.head, self.grad)
        # (start, stop, lambda, learning rate) of each stretch, as TrainConfig keys
        self.stretches = [(0, self.tower, "lambda3", "lr_net"), (self.tower, size, "lambda4", "lr_net")]
        self.slots, start = {}, size
        for name, n in counts.items():
            stop = start + n * tables.K
            self.grads[name], *views = (v[start:stop].reshape(n, -1) for v in (self.grad, self.params, self.acc))
            self.slots[name] = (start, *views)
            self.stretches.append((start, stop, "lambda2" if name == "Q" else "lambda1", "lr_embed"))
            start = stop
        self.scratch, self.plan_key, self._plan = np.empty(min(length, HEAD_STEP_ENTRIES)), None, []
        self.work = tower_work(spec, 2)

    def plan(self, config: TrainConfig, regularize: bool) -> list:
        """The vector's parts of at most ``HEAD_STEP_ENTRIES`` entries, built
        when the hyper-parameters change: (start, stop, lr, runs), a run a
        (start, stop, 2 * lambda) span of non-zero L2 in the part (a zero
        lambda adds nothing, not even +0.0 to a -0.0 gradient). lr and 2 *
        lambda hold one entry where constant, else one per entry."""
        c, one = config, lambda v: v[:1].copy() if (v == v[0]).all() else v
        key = (regularize, c.lambda1, c.lambda2, c.lambda3, c.lambda4, c.lr_net, c.lr_embed)
        if key != self.plan_key:
            self.plan_key, self._plan, size = key, [], self.params.size
            for lo in range(0, size, HEAD_STEP_ENTRIES):
                hi = min(lo + HEAD_STEP_ENTRIES, size)
                cut = [(min(b, hi) - max(a, lo), lam, lr) for a, b, lam, lr in self.stretches if max(a, lo) < min(b, hi)]
                l2 = np.concatenate([np.full(n, 2.0 * getattr(c, lam) * regularize) for n, lam, _ in cut])
                lrs = np.concatenate([np.full(n, getattr(c, lr)) for n, _, lr in cut])
                edges = np.flatnonzero(np.diff(np.r_[0, l2 != 0, 0])).reshape(-1, 2).tolist()
                self._plan.append((lo, hi, one(lrs), [(a, b, one(l2[a:b])) for a, b in edges]))
        return self._plan


def adagrad_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: np.ndarray,
    lr: float,
    epsilon: float,
    out: np.ndarray,
) -> None:
    """In-place: state += grad^2; param -= lr * grad / (sqrt(state) + epsilon),
    ``lr`` a float or an array broadcast against ``grad``.

    ``out``, an array shaped like ``grad``, holds grad^2 and then the
    denominator; ``lr * grad`` is the only temporary. The formula's
    operations run in its order, so the bytes are the formula's. Each is a
    ufunc call with its output passed by position: on a few entries numpy's
    in-place operators and the ``out=`` keyword cost about twice as much.
    """
    np.multiply(grad, grad, out)
    np.add(state, out, state)
    np.sqrt(state, out)
    np.add(out, epsilon, out)
    np.divide(np.multiply(grad, lr), out, out)
    np.subtract(param, out, param)


# ---------------------------------------------------------------------------
# per-triple gradients


def triple_forward(
    spec: ModelSpec,
    tables: EmbeddingTables,
    u: int,
    i: int,
    j: int,
    terms: Optional[np.ndarray],
    work: Optional[ConvWork],
):
    """Embed, merge and score the positive and the negative of one triple
    as a batch of two, given the user's history terms (1-D, ascending, or
    None), a conv head through ``work`` (see ``head_forward``); returns
    (FU, FI, merged, head activations, scores)."""
    FU = user_rows(spec, tables, (u, u), None if terms is None else terms[None], (i, j))
    FI = tables.Q.take((i, j), axis=0)
    merged = merge(spec.merge, FU, FI)
    acts, y = head_forward(spec, merged, work)
    return FU, FI, merged, acts, y


def compute_triple_gradients(
    spec: ModelSpec,
    tables: EmbeddingTables,
    u: int,
    i: int,
    j: int,
    terms: Optional[np.ndarray],
    grads: dict[str, np.ndarray],
    work: Optional[ConvWork],
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward both branches of one triple and backpropagate the plain
    (regularization-free) pairwise loss through every shared parameter into
    ``grads``, keyed as ``AdagradState.grads``, each table's touched rows
    into its buffer's leading rows; a conv head's activations and
    cotangents go into ``work``. Returns (loss, ``{table: rows}``)."""
    FU, FI, merged, acts, y = triple_forward(spec, tables, u, i, j, terms, work)
    y_pos, y_neg = float(y[0]), float(y[1])
    d_merged = head_backward(spec, merged, acts, np.array(bpr_grad(y_pos, y_neg)), grads, work)
    d_FU, d_FI = merge_backward(spec.merge, FU, FI, d_merged)
    rows = scatter_user_gradient(spec, u, terms, (i, j), d_FU, grads)
    np.copyto(grads["Q"][:2], d_FI)
    rows["Q"] = np.array([i, j])
    return bpr_loss(y_pos, y_neg), rows


def train_step(
    spec: ModelSpec,
    tables: EmbeddingTables,
    triple: tuple[int, int, int],
    config: TrainConfig,
    states: AdagradState,
    regularize: bool,
    terms: Optional[np.ndarray] = None,
) -> float:
    """One triple: its gradients into ``states.grads`` through the tower
    buffers ``states.work``, then one ``adagrad_pass``. Returns the
    pre-update pairwise loss."""
    u, i, j = triple
    loss, rows = compute_triple_gradients(spec, tables, u, i, j, terms, states.grads, states.work)
    adagrad_pass(tables, states, rows, config, regularize)
    return loss


def adagrad_pass(
    tables: EmbeddingTables,
    states: AdagradState,
    rows: dict[str, np.ndarray],
    config: TrainConfig,
    regularize: bool,
) -> None:
    """Step the head and the table rows of ``rows``, by table in the order
    of their gradients in ``states.grads``, each row once (a negative is
    never the positive, history terms are distinct): gather the rows and
    accumulators into their slots, run L2 + Adagrad up to the last slot in
    use in ``states.plan``'s parts, each operation one elementwise pass
    over a part in cache, and write the rows back."""
    end = states.size
    for name, index in rows.items():
        start, param, acc = states.slots[name]
        getattr(tables, name).take(index, axis=0, out=param[: len(index)])
        states[name].take(index, axis=0, out=acc[: len(index)])
        end = max(end, start + param[: len(index)].size)
    for lo, hi, lr, runs in states.plan(config, regularize):
        if lo >= end:
            break
        n = min(hi, end) - lo
        grad, param, s = states.grad[lo : lo + n], states.params[lo : lo + n], states.scratch[:n]
        for a, b, l2 in runs:
            b = min(b, n)
            if a < b:
                np.add(grad[a:b], np.multiply(param[a:b], l2[: b - a], s[a:b]), grad[a:b])
        adagrad_step(param, grad, states.acc[lo : lo + n], lr[:n], config.adagrad_epsilon, s)
    for name, index in rows.items():
        _, param, acc = states.slots[name]
        at = index[0] if len(index) == 1 else index  # basic indexing writes one row ~5x faster
        getattr(tables, name)[at], states[name][at] = param[: len(index)], acc[: len(index)]


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


def evaluate_state(
    spec: ModelSpec,
    tables: EmbeddingTables,
    splits: SplitSet,
    epoch: int,
    mean_loss: float = math.nan,
) -> EpochRecord:
    """Validation, then test, on one model state. The two ``evaluate`` calls
    share one fresh rank store, so a history-free model scores each user
    once; they are the only calls a state gets, which the benchmark's
    per-epoch timing relies on."""
    store: dict[tuple[int, str], int] = {}
    val = evaluate(spec, tables, splits, which="val", store=store)
    test = evaluate(spec, tables, splits, which="test", store=store)
    return EpochRecord(epoch=epoch, mean_loss=mean_loss, val=val, test=test)


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
    states = AdagradState(spec, tables, int(np.diff(train_ds.indptr).max()))
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, seed_namespace + ".shuffle"))
    neg_rng = np.random.default_rng(derive_seed(config.seed, seed_namespace + ".negatives"))
    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        regularize = epoch > 1
        total, count = 0.0, 0
        for us, its in minibatches(train_ds, config.batch_size, shuffle_rng):
            js = sample_negative(train_ds, us, neg_rng)
            for u, i, j in zip(us.tolist(), its.tolist(), js.tolist()):
                terms = train_ds.terms_of(u) if spec.variant.reads_history else None
                loss = train_step(spec, tables, (u, i, j), config, states, regularize, terms)
                if not math.isfinite(loss):
                    raise NonFiniteError(f"epoch {epoch}: loss {loss} at triple (u, i, j) = ({u}, {i}, {j})")
                total += loss
                count += 1
        for name, arr in section_arrays(spec, tables).items():
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"epoch {epoch}: section {name} holds non-finite values")
        records.append(evaluate_state(spec, tables, splits, epoch, total / max(count, 1)))
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
    fism_norm: str = FISM_NORM_EXCLUDED,
) -> TrainResult:
    """Train the shallow (inner-product) counterpart of a variant; its
    tables warm-start the deep model."""
    config.validate()
    tables = init_tables(splits.train.M, splits.train.N, K, variant, derive_seed(config.seed, "init"))
    spec = ModelSpec(
        variant=variant,
        merge=MergeKind.INNER,
        head=IdentityHead(),
        K=K,
        fism_norm=fism_norm,
        alpha=alpha,
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

METRICS_HEADER = ",".join(["epoch", "split", *(f"{m}@{k}" for m in ("hr", "ndcg") for k in DEFAULT_KS), "loss"])


def format_metric_rows(record: EpochRecord) -> list[str]:
    rows = []
    for split_name, res in (("val", record.val), ("test", record.test)):
        cells = [str(record.epoch), split_name]
        cells += [repr(res.hr[k]) for k in DEFAULT_KS]
        cells += [repr(res.ndcg[k]) for k in DEFAULT_KS]
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
