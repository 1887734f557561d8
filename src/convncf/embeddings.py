"""Embedding tables, the user representation and its adjoint.

Three user representations share one item table:

* ``MF``: a free vector per user id.
* ``FISM``: the normalized sum of a separate history-item table over the
  user's interacted items, with the current target item excluded from the
  sum so it cannot leak its own embedding into the score.
* ``SVDPP``: the MF vector plus the FISM sum.

``user_rows`` builds the representation for a batch of targets and
``scatter_user_gradient`` is its adjoint; both read one keep/norm rule. The
FISM normalizer is ``1 / n**alpha``. By default ``n`` counts the items
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
    alpha: float = 0.5

    @property
    def K(self) -> int:
        return self.P.shape[1]

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
    return EmbeddingTables(P=P, Q=Q, Qp=Qp, alpha=alpha)


def history_terms(history: Sequence[int]) -> np.ndarray:
    """The distinct history items, ascending: the rows a history sum adds,
    in the order it adds them."""
    return np.unique(np.asarray(history, dtype=np.int64))


def _history_weights(terms: np.ndarray, targets: Optional[Sequence[int]], norm: str, alpha: float):
    """The keep/norm rule of a batch of history sums, shared by the forward
    and its adjoint: ``(keep, scales)``. ``keep[r, b]`` says whether target
    b's sum adds history row ``terms[r]`` (one all-true column when
    ``targets`` is None); ``scales[b]`` is ``max(1, n_b) ** alpha``, n_b the
    rows target b keeps, or every row under ``full_set``."""
    keep = np.ones((terms.size, 1), bool) if targets is None else terms[:, None] != np.asarray(targets)[None, :]
    counts = keep.sum(axis=0).tolist() if norm == FISM_NORM_EXCLUDED else [terms.size] * keep.shape[1]
    return keep, np.array([float(max(1, n)) ** alpha for n in counts])


def user_rows(
    tables: EmbeddingTables,
    variant: Variant,
    u: int,
    terms: Optional[np.ndarray] = None,
    targets: Optional[Sequence[int]] = None,
    norm: str = FISM_NORM_EXCLUDED,
) -> np.ndarray:
    """The user representation fed to the merge function: ``(B, K)``, row b
    built for ``targets[b]``, or one row with nothing excluded when
    ``targets`` is None. ``terms`` is the history's ``history_terms`` (MF
    reads none); indices are not checked here."""
    if variant is Variant.MF:
        own = tables.P[u : u + 1]
        return own.copy() if targets is None else own.repeat(len(targets), axis=0)
    keep, scales = _history_weights(terms, targets, norm, tables.alpha)
    FU = np.where(keep[:, :, None], tables.Qp[terms][:, None, :], 0.0).sum(axis=0) / scales[:, None]
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
        keep, scales = _history_weights(terms, targets, norm, alpha)
        scaled = d_FU / scales[:, None]
        touched = keep.any(axis=1)
        if not touched.all():
            terms, keep = terms[touched], keep[touched]
        out["Qp"] = (terms, np.where(keep[:, :, None], scaled[None], 0.0).sum(axis=1))
    return out
