"""Independent reference implementations used to check the fast paths.

Everything here is written as plain loops or obvious one-liners on purpose:
these functions trade speed for being easy to audit, and the real code must
agree with them, not the other way around.
"""

from __future__ import annotations

import numpy as np


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


def dense_backward_loops(x: np.ndarray, W: np.ndarray, act: np.ndarray, d_act: np.ndarray):
    """Adjoint of one relu dense layer for one row, entry by entry: (d_x,
    d_W, d_b). A unit whose output is 0 passes no gradient."""
    d_pre = np.array([d_act[r] if act[r] > 0 else 0.0 for r in range(W.shape[0])])
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


def user_rows_loops(tables, variant, u, targets, history, norm):
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
            row = row / float(n) ** tables.alpha
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

