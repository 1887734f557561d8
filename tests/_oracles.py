"""Independent reference implementations used to check the fast paths.

Everything here is written as plain loops or obvious one-liners on purpose:
these functions trade speed for being easy to audit, and the real code must
agree with them, not the other way around.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from convncf import training
from convncf.data import ParseError, _assemble
from convncf.embeddings import scatter_user_gradient
from convncf.model import head_backward, head_sections, head_views, merge_backward, pack_head, tower_work
from convncf.training import adagrad_step, bpr_grad, bpr_loss, triple_forward


def outer_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[0]))
    for r in range(a.shape[0]):
        for c in range(b.shape[0]):
            out[r, c] = a[r] * b[c]
    return out


def conv2x2s2_loops(inp: np.ndarray, kernel: np.ndarray, bias: float):
    """Quadruple-loop 2x2/stride-2 valid convolution with relu."""
    h, _, cin = inp.shape
    cout = kernel.shape[3]
    s = h // 2
    pre = np.zeros((s, s, cout))
    for r in range(s):
        for c in range(s):
            for o in range(cout):
                acc = bias
                for a in range(2):
                    for b in range(2):
                        for d in range(cin):
                            acc += inp[2 * r + a, 2 * c + b, d] * kernel[a, b, d, o]
                pre[r, c, o] = acc
    return pre, np.maximum(pre, 0.0)


def dense_loops(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(W.shape[0])
    for r in range(W.shape[0]):
        acc = b[r]
        for c in range(W.shape[1]):
            acc += W[r, c] * x[c]
        out[r] = acc
    return out


def relu_backward_loops(act: np.ndarray, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entry by entry: ``d`` where ``act > 0`` (a -0.0 stays -0.0), else
    +0.0; copied into ``out`` too when given, as ``relu_backward`` writes."""
    masked = np.zeros(d.shape)
    for idx in np.ndindex(d.shape):
        if act[idx] > 0:
            masked[idx] = d[idx]
    if out is None:
        return masked
    out[...] = masked
    return out


def dense_backward_loops(x: np.ndarray, W: np.ndarray, act: np.ndarray, d_act: np.ndarray):
    """Adjoint of one relu dense layer for one row, entry by entry: (d_x,
    d_W, d_b). A unit whose output is 0 passes no gradient."""
    d_pre = relu_backward_loops(act, d_act)
    d_x = np.zeros(W.shape[1])
    d_W = np.zeros(W.shape)
    for r in range(W.shape[0]):
        for c in range(W.shape[1]):
            d_W[r, c] = d_pre[r] * x[c]
            d_x[c] += W[r, c] * d_pre[r]
    return d_x, d_W, d_pre


def mlp_loops(head, X0: np.ndarray, d_y: np.ndarray):
    """An MLP head run one row at a time through dense_loops and
    dense_backward_loops: (acts, scores, grads, d_X0). acts[l] stacks layer
    l's relu outputs over the rows; grads are summed over the rows in row
    order, by section name."""
    rows, scores, grads, d_X0 = [], [], {}, []
    for x, dy in zip(X0, d_y):
        acts = [x]
        for layer in head.layers:
            acts.append(np.maximum(dense_loops(acts[-1], layer.W, layer.b), 0.0))
        scores.append(sum(a * w for a, w in zip(acts[-1], head.w)))
        row = {"w": dy * acts[-1]}
        d_act = dy * head.w
        for l in range(len(head.layers), 0, -1):
            layer = head.layers[l - 1]
            d_act, row[f"mlp.{l}.W"], row[f"mlp.{l}.b"] = dense_backward_loops(acts[l - 1], layer.W, acts[l], d_act)
        for name, grad in row.items():
            grads[name] = grads[name] + grad if name in grads else grad
        rows.append(acts)
        d_X0.append(d_act)
    acts = [np.array([r[l] for r in rows]) for l in range(len(head.layers) + 1)]
    return acts, np.array(scores), grads, np.array(d_X0)


def rank_of_target(scores: np.ndarray, target_index: int) -> int:
    """1 + the number of candidates scoring strictly above the target: the
    rank rule evaluation applies to one user's scores at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target_index < scores.shape[0]:
        raise IndexError(f"target index {target_index} out of range [0, {scores.shape[0]})")
    return 1 + int(np.sum(scores > scores[target_index]))


def rank_by_sort(scores: np.ndarray, target_index: int) -> int:
    """Rank via a full stable sort: position of the target among descending
    scores, counting only strictly better candidates ahead of it."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    target_score = scores[target_index]
    rank = 1
    for idx in order:
        if scores[idx] > target_score:
            rank += 1
        else:
            break
    return rank


def sample_negative_set(positives, N: int, rng) -> int:
    """Rejection loop against a frozenset of the user's positive items."""
    positives = frozenset(positives)
    while True:
        j = int(rng.integers(N))
        if j not in positives:
            return j


def numeric_grad(f, arr: np.ndarray, flat_index: int, step: float = 1e-6) -> float:
    """Central difference of a scalar function with respect to one entry."""
    orig = arr.flat[flat_index]
    arr.flat[flat_index] = orig + step
    up = f()
    arr.flat[flat_index] = orig - step
    down = f()
    arr.flat[flat_index] = orig
    return (up - down) / (2.0 * step)


def numeric_grad_full(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a vector-to-scalar function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for k in range(x.size):
        bumped = x.copy()
        bumped[k] = x[k] + step
        up = f(bumped)
        bumped[k] = x[k] - step
        out[k] = (up - f(bumped)) / (2.0 * step)
    return out


def user_rows_loops(tables, variant, u, targets, history, norm, alpha):
    """One user row per target, built alone: the sum of the distinct history
    rows other than the target (a None target keeps them all), divided by
    ``max(1, n)**alpha`` with n the rows kept (``excluded_set``) or every
    distinct row (``full_set``); MF and SVD++ add the user row."""
    kind = variant.value
    full = sorted(set(history))
    rows = []
    for target in targets:
        row = np.zeros(tables.K)
        if kind != "mf":
            kept = [t for t in full if t != target]
            for t in kept:
                row = row + tables.Qp[t]
            n = max(1, len(kept) if norm == "excluded_set" else len(full))
            row = row / float(n) ** alpha
        if kind != "fism":
            row = row + tables.P[u]
        rows.append(row)
    return np.array(rows)


def scatter_user_gradient_loops(variant, u, targets, history, d_FU, alpha, norm):
    """Per-row dict accumulation of the user-embedding adjoint: one pass per
    target, each pass adding its gradient row to the user row (MF, SVD++) and
    ``d / n**alpha`` to every history row the target keeps (FISM, SVD++).
    Returns {section: {row: grad}}; a row no target reaches is absent."""
    kind = variant.value
    P: dict[int, np.ndarray] = {}
    Qp: dict[int, np.ndarray] = {}

    def add(rows, idx, vec):
        rows[idx] = rows[idx] + vec if idx in rows else np.array(vec, dtype=np.float64)

    full = sorted(set(history))
    for target, d in zip(targets, d_FU):
        if kind != "mf":
            kept = [t for t in full if t != target]
            if kept:
                n = max(1, len(kept) if norm == "excluded_set" else len(full))
                for t in kept:
                    add(Qp, t, d / float(n) ** alpha)
        if kind != "fism":
            add(P, u, d)
    out = {}
    if kind != "fism":
        out["P"] = P
    if kind != "mf":
        out["Qp"] = Qp
    return out


def planted_interactions_loops(
    M: int = 200,
    N: int = 300,
    rank: int = 8,
    per_user: int = 20,
    noise: float = 0.5,
    seed: int = 0,
) -> list[tuple[str, str, int]]:
    """The dense generator: the whole M x N affinity matrix, one full
    argsort per user, each id formatted per record."""
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(M, rank))
    V = rng.normal(size=(N, rank))
    S = (U @ V.T) / np.sqrt(rank)
    S = (S - S.mean(axis=0)) / (S.std(axis=0) + 1e-12)
    triples = []
    for u in range(M):
        noisy = S[u] + rng.gumbel(0.0, noise, size=N)
        chosen = np.argsort(-noisy)[:per_user]
        stamps = rng.integers(100_000, 200_000, size=per_user)
        for i, ts in zip(chosen.tolist(), stamps.tolist()):
            triples.append((f"u{u:03d}", f"i{i:03d}", int(ts)))
    return triples


def load_interactions_loops(path: str):
    """The line-by-line parser: each rule checked per line as it is read,
    ids numbered on first appearance, rows assembled as the loader does."""
    user_ids: list[str] = []
    item_ids: list[str] = []
    seen_user: dict[str, int] = {}
    seen_item: dict[str, int] = {}
    users, items, stamps = array("q"), array("q"), array("q")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
            raw_u, raw_i, ts_text = parts
            if not raw_u or not raw_i:
                raise ParseError(f"line {lineno}: empty user or item id")
            # an optional sign, then ASCII digits: int() also takes '1_000', ' 7' and '١٢'
            if not ((ts_text.isdigit() or ts_text[:1] in ("+", "-") and ts_text[1:].isdigit()) and ts_text.isascii()):
                raise ParseError(f"line {lineno}: timestamp {ts_text!r} is not a base-10 integer")
            try:
                stamps.append(int(ts_text))
            except OverflowError:
                raise ParseError(f"line {lineno}: timestamp {ts_text!r} is outside the int64 range") from None
            if raw_u not in seen_user:
                seen_user[raw_u] = len(user_ids)
                user_ids.append(raw_u)
            if raw_i not in seen_item:
                seen_item[raw_i] = len(item_ids)
                item_ids.append(raw_i)
            users.append(seen_user[raw_u])
            items.append(seen_item[raw_i])
    users, items, stamps = (np.frombuffer(rows, dtype=np.int64) for rows in (users, items, stamps))
    return _assemble(users, items, stamps, user_ids, item_ids)


class AdagradStateLoops(dict):
    """State of the section-by-section step: table accumulators by section
    name, the head packed into ``head`` with its accumulator ``head_acc``,
    stepped in ``parts`` of (start, stop, tower entries among them)."""

    def __init__(self, spec, tables):
        super().__init__({name: np.zeros_like(getattr(tables, name)) for name in spec.variant.tables})
        self.head = np.empty(sum(arr.size for _, arr in head_sections(spec.head)))
        pack_head(spec.head, self.head)
        self.head_acc = np.zeros_like(self.head)
        self.head_names = [name for name, _ in head_sections(spec.head)]
        self.tower = self.head.size - (spec.head.w.size if self.head_names else 0)
        size, step = self.head.size, training.HEAD_STEP_ENTRIES
        self.parts = [(lo, min(lo + step, size), min(max(self.tower - lo, 0), step)) for lo in range(0, size, step)]
        self.scratch = np.empty(min(size, step))


@dataclass
class LoopGrads:
    loss: float
    head: dict  # section -> grads
    tables: dict  # section -> (rows, grads)


def compute_triple_gradients_loops(spec, tables, u, i, j, terms=None):
    """The per-triple gradients in fresh arrays: head grads by section,
    table grads as (rows, grads) by section."""
    work = tower_work(spec, 2)
    FU, FI, merged, acts, y = triple_forward(spec, tables, u, i, j, terms, work)
    y_pos, y_neg = float(y[0]), float(y[1])
    loss = bpr_loss(y_pos, y_neg)
    head_grads = head_views(spec.head)
    d_merged = head_backward(spec, merged, acts, np.array(bpr_grad(y_pos, y_neg)), head_grads, work)
    d_FU, d_FI = merge_backward(spec.merge, FU, FI, d_merged)
    user = {"P": np.empty((1, spec.K)), "Qp": np.empty((0 if terms is None else len(terms), spec.K))}
    rows = scatter_user_gradient(spec, u, terms, (i, j), d_FU, user)
    table_grads = {name: (index, user[name][: len(index)]) for name, index in rows.items()}
    table_grads["Q"] = (np.array([i, j]), d_FI)
    return LoopGrads(loss=loss, head=head_grads, tables=table_grads)


def train_step_loops(spec, tables, triple, config, states, regularize, terms=None):
    """One triple stepped section by section: the packed head's gradient
    concatenated and stepped in its parts with lambda3 on the tower and
    lambda4 on w, the user row P[u] through its row view, and Q and Qp over
    their gathered rows, each with its own L2 (skipped for a zero lambda)
    and Adagrad step. ``states`` is an ``AdagradStateLoops``."""
    u, i, j = triple
    g = compute_triple_gradients_loops(spec, tables, u, i, j, terms)

    if states.head_names:
        grad = np.concatenate([g.head[name] for name in states.head_names], axis=None)
        g.head.clear()  # the packed copy is all the step needs
        for lo, hi, t in states.parts:
            g_part, head, s = grad[lo:hi], states.head[lo:hi], states.scratch[: hi - lo]
            if regularize and config.lambda3:
                g_part[:t] += np.multiply(head[:t], 2.0 * config.lambda3, s[:t])
            if regularize and config.lambda4:
                g_part[t:] += np.multiply(head[t:], 2.0 * config.lambda4, s[t:])
            adagrad_step(head, g_part, states.head_acc[lo:hi], config.lr_net, config.adagrad_epsilon, s)

    for name, (rows, grad) in g.tables.items():
        table, acc = getattr(tables, name), states[name]
        lam = config.lambda2 if name == "Q" else config.lambda1
        if name == "P":
            rows, grad = u, grad[0]
        block, block_acc = table[rows], acc[rows]
        if regularize and lam:
            grad = grad + 2.0 * lam * block
        adagrad_step(block, grad, block_acc, config.lr_embed, config.adagrad_epsilon, np.empty_like(grad))
        if name != "P":
            table[rows], acc[rows] = block, block_acc
    return g.loss
