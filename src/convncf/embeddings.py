"""User and item embedding functions and their scatter gradients.

Three user representations share one item table:

* ``MF``: a free vector per user id.
* ``FISM``: the normalized sum of a separate history-item table over the
  user's interacted items, with the current target item excluded from the
  sum so it cannot leak its own embedding into the score.
* ``SVDPP``: the MF vector plus the FISM sum.

The FISM normalizer is ``1 / n**alpha``. By default ``n`` counts the items
actually summed (the history with the target removed, clamped to at least
one so an empty sum stays well-defined); ``norm="full_set"`` instead uses
the size of the full history set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

FISM_NORM_EXCLUDED = "excluded_set"
FISM_NORM_FULL = "full_set"
FISM_NORMS = (FISM_NORM_EXCLUDED, FISM_NORM_FULL)


class Variant(Enum):
    MF = "mf"
    FISM = "fism"
    SVDPP = "svdpp"


@dataclass
class EmbeddingTables:
    """Embedding matrices: P (users), Q (target items), Qp (history items).

    Qp is only allocated for the history-based variants. ``alpha`` is the
    normalization exponent of the history sum.
    """

    P: np.ndarray
    Q: np.ndarray
    Qp: Optional[np.ndarray]
    K: int
    alpha: float = 0.5

    @property
    def M(self) -> int:
        return self.P.shape[0]

    @property
    def N(self) -> int:
        return self.Q.shape[0]


def init_tables(
    M: int, N: int, K: int, variant: Variant, seed: int, scale: float = 0.01, alpha: float = 0.5
) -> EmbeddingTables:
    """Fresh tables with i.i.d. Gaussian(0, scale) entries, seeded."""
    if M < 1 or N < 1 or K < 1:
        raise ValueError(f"table dimensions must be positive, got M={M}, N={N}, K={K}")
    rng = np.random.default_rng(seed)
    P = rng.normal(0.0, scale, size=(M, K))
    Q = rng.normal(0.0, scale, size=(N, K))
    Qp = rng.normal(0.0, scale, size=(N, K)) if variant in (Variant.FISM, Variant.SVDPP) else None
    return EmbeddingTables(P=P, Q=Q, Qp=Qp, K=K, alpha=alpha)


def item_embedding(tables: EmbeddingTables, items) -> np.ndarray:
    """Rows of the target-item table, copied: one row for an index, a
    ``(B, K)`` block for an index sequence."""
    return tables.Q.take(items, axis=0)


def history_terms(history: Sequence[int]) -> np.ndarray:
    """The distinct history items, ascending: the rows a history sum adds,
    in the order it adds them."""
    return np.unique(np.asarray(history, dtype=np.int64))


def _fism_norm_count(norm: str, n_summed: int, n_full: int) -> int:
    if norm == FISM_NORM_EXCLUDED:
        return max(1, n_summed)
    if norm == FISM_NORM_FULL:
        return max(1, n_full)
    raise ValueError(f"unknown fism norm {norm!r}")


def _history_sum(tables: EmbeddingTables, terms: np.ndarray, target_i: Optional[int], norm: str) -> np.ndarray:
    kept = terms if target_i is None else terms[terms != target_i]
    if not kept.size:
        return np.zeros(tables.K)
    n = _fism_norm_count(norm, kept.size, terms.size)
    return tables.Qp[kept].sum(axis=0) / float(n) ** tables.alpha


def user_embedding(
    tables: EmbeddingTables,
    variant: Variant,
    u: int,
    target_i: Optional[int],
    history: Sequence[int] = (),
    norm: str = FISM_NORM_EXCLUDED,
) -> np.ndarray:
    """The user representation fed to the merge function.

    ``target_i`` may be None when scoring candidates that are known not to
    be in the history (the evaluation fast path); the exclusion rule is
    then a no-op.
    """
    if not 0 <= u < tables.M:
        raise IndexError(f"user index {u} out of range [0, {tables.M})")
    if variant is Variant.MF:
        return tables.P[u].copy()
    terms = history_terms(history)
    if terms.size and (terms[0] < 0 or terms[-1] >= tables.N):
        raise IndexError("history item index out of range")
    return user_rows(tables, variant, u, (target_i,), terms, norm)[0]


def user_rows(
    tables: EmbeddingTables,
    variant: Variant,
    u: int,
    targets: Sequence[Optional[int]],
    terms: np.ndarray,
    norm: str = FISM_NORM_EXCLUDED,
) -> np.ndarray:
    """``(B, K)``: row b is user_embedding for ``targets[b]``, given the
    history's ``history_terms``; indices are not checked again."""
    if variant is Variant.MF:
        return tables.P[[u] * len(targets)]
    FU = np.array([_history_sum(tables, terms, t, norm) for t in targets])
    if variant is Variant.SVDPP:
        FU += tables.P[u]
    return FU


def scatter_user_gradient(
    variant: Variant,
    u: int,
    targets: Sequence[int],
    terms: Sequence[int],
    d_FU: np.ndarray,
    alpha: float = 0.5,
    norm: str = FISM_NORM_EXCLUDED,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Adjoint of user_rows over a batch of targets.

    Row b of ``d_FU`` is the gradient of the representation built for
    ``targets[b]``; ``terms`` are the distinct history items, in any order.
    Returns ``{section: (rows, grads)}`` for P and/or Qp, every touched row
    listed once with its gradient summed over the batch. MF routes every row
    of d_FU to the user row; the history variants spread
    ``d_FU[b] / n_b**alpha`` over the history rows that target b keeps.
    """
    out = {}
    if variant is not Variant.FISM:
        out["P"] = (np.array([u]), d_FU.sum(axis=0, keepdims=True))
    if variant is not Variant.MF:
        terms = np.asarray(terms, dtype=np.int64)
        keep = terms[:, None] != np.asarray(targets)[None, :]
        counts = keep.sum(axis=0).tolist()
        scales = [float(_fism_norm_count(norm, c, len(terms))) ** alpha for c in counts]
        scaled = d_FU / np.array(scales)[:, None]
        touched = keep.any(axis=1)
        if not touched.all():
            terms, keep = terms[touched], keep[touched]
        out["Qp"] = (terms, np.where(keep[:, :, None], scaled[None], 0.0).sum(axis=1))
    return out
