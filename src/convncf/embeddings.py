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
from typing import Iterable, Optional, Sequence

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


def item_embedding(tables: EmbeddingTables, i: int) -> np.ndarray:
    """Copy of row i of the target-item table."""
    if not 0 <= i < tables.N:
        raise IndexError(f"item index {i} out of range [0, {tables.N})")
    return tables.Q[i].copy()


def _history_sum_terms(target_i: Optional[int], history: Iterable[int]) -> np.ndarray:
    items = np.asarray(sorted(set(history)), dtype=np.int64)
    if target_i is not None:
        items = items[items != target_i]
    return items


def _fism_norm_count(norm: str, n_summed: int, n_full: int) -> int:
    if norm == FISM_NORM_EXCLUDED:
        return max(1, n_summed)
    if norm == FISM_NORM_FULL:
        return max(1, n_full)
    raise ValueError(f"unknown fism norm {norm!r}")


def user_embedding(
    tables: EmbeddingTables,
    variant: Variant,
    u: int,
    target_i: Optional[int],
    history: Iterable[int] = (),
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

    history = list(history)
    terms = _history_sum_terms(target_i, history)
    if terms.size and (terms.min() < 0 or terms.max() >= tables.N):
        raise IndexError("history item index out of range")
    n = _fism_norm_count(norm, terms.size, len(set(history)))
    if terms.size:
        hist_vec = tables.Qp[terms].sum(axis=0) / float(n) ** tables.alpha
    else:
        hist_vec = np.zeros(tables.K)
    if variant is Variant.FISM:
        return hist_vec
    if variant is Variant.SVDPP:
        return tables.P[u] + hist_vec
    raise ValueError(f"unknown variant {variant!r}")


def scatter_user_gradient(
    variant: Variant,
    u: int,
    targets: Sequence[int],
    history: Iterable[int],
    d_FU: np.ndarray,
    alpha: float = 0.5,
    norm: str = FISM_NORM_EXCLUDED,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Adjoint of user_embedding over a batch of targets.

    Row b of ``d_FU`` is the gradient of the representation built for
    ``targets[b]``. Returns ``{section: (rows, grads)}`` for P and/or Qp,
    every touched row listed once with its gradient summed over the batch.
    MF routes every row of d_FU to the user row; the history variants spread
    ``d_FU[b] / n_b**alpha`` over the history rows that target b keeps.
    """
    out = {}
    if variant is not Variant.FISM:
        out["P"] = (np.array([u]), d_FU.sum(axis=0, keepdims=True))
    if variant is not Variant.MF:
        terms = _history_sum_terms(None, history)
        keep = terms[:, None] != np.asarray(targets)[None, :]
        counts = keep.sum(axis=0).tolist()
        scales = [float(_fism_norm_count(norm, c, len(terms))) ** alpha for c in counts]
        scaled = d_FU / np.array(scales)[:, None]
        touched = keep.any(axis=1)
        if not touched.all():
            terms, keep = terms[touched], keep[touched]
        out["Qp"] = (terms, np.where(keep[:, :, None], scaled[None], 0.0).sum(axis=1))
    return out
