"""Embedding tables, the user representation and its adjoint.

Three user representations share one target-item table ``Q``:

* ``MF``: a free vector per user id, a row of ``P``.
* ``FISM``: the normalized sum of a separate history-item table ``Qp``
  over the user's interacted items, with the current target item excluded
  from the sum so it cannot leak its own embedding into the score. No ``P``.
* ``SVDPP``: the MF vector plus the FISM sum.

``Variant.tables`` is the one declaration of the tables each representation
owns, in checkpoint order, and ``reads_history`` follows from it.

``user_rows`` builds the representation for a batch of targets and
``scatter_user_gradient`` is its adjoint; both read one keep/norm rule from
the model spec. The FISM normalizer is ``1 / n**alpha``. By default ``n``
counts the items actually summed (the history with the target removed,
clamped to at least one so an empty sum stays well-defined);
``fism_norm="full_set"`` instead uses the size of the full history set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from convncf.model import ModelSpec

FISM_NORM_EXCLUDED = "excluded_set"
FISM_NORM_FULL = "full_set"
FISM_NORMS = (FISM_NORM_EXCLUDED, FISM_NORM_FULL)


class Variant(Enum):
    """A user representation: its config name, the embedding tables it owns
    (in checkpoint order) and whether its user row sums ``Qp`` over the
    user's history items, which it does exactly when it owns ``Qp``."""

    MF = "mf", ("P", "Q")
    FISM = "fism", ("Q", "Qp")
    SVDPP = "svdpp", ("P", "Q", "Qp")

    def __new__(cls, value: str, tables: tuple[str, ...]):
        member = object.__new__(cls)
        member._value_, member.tables, member.reads_history = value, tables, "Qp" in tables
        return member


@dataclass
class EmbeddingTables:
    """Embedding matrices: P (users), Q (target items), Qp (history items);
    a table the variant does not own is None, and so is ``M`` without P."""

    P: Optional[np.ndarray]
    Q: np.ndarray
    Qp: Optional[np.ndarray]

    @property
    def K(self) -> int:
        return self.Q.shape[1]

    @property
    def M(self) -> Optional[int]:
        return None if self.P is None else self.P.shape[0]

    @property
    def N(self) -> int:
        return self.Q.shape[0]


def init_tables(M: int, N: int, K: int, variant: Variant, seed: int, scale: float = 0.01) -> EmbeddingTables:
    """Fresh tables with i.i.d. Gaussian(0, scale) entries, seeded. P is
    drawn for every variant, so Q and Qp take the same values whether or not
    the variant keeps it."""
    if M < 1 or N < 1 or K < 1:
        raise ValueError(f"table dimensions must be positive, got M={M}, N={N}, K={K}")
    rng = np.random.default_rng(seed)
    P = rng.normal(0.0, scale, size=(M, K))
    Q = rng.normal(0.0, scale, size=(N, K))
    Qp = rng.normal(0.0, scale, size=(N, K)) if variant.reads_history else None
    return EmbeddingTables(P=P if "P" in variant.tables else None, Q=Q, Qp=Qp)


def history_terms(history: Sequence[int]) -> np.ndarray:
    """The distinct history items, ascending: the rows a history sum adds,
    in the order it adds them."""
    return np.unique(np.asarray(history, dtype=np.int64))


def _history_weights(spec: ModelSpec, terms: np.ndarray, targets: Optional[Sequence[int]]):
    """The keep/norm rule of a batch of history sums, shared by the forward
    and its adjoint: ``(keep, scales)``. ``keep[r, b]`` says whether target
    b's sum adds history row ``terms[r]`` (one all-true column when
    ``targets`` is None); ``scales[b]`` is ``max(1, n_b) ** spec.alpha``,
    n_b the rows target b keeps, or every row when ``spec.fism_norm`` is
    ``full_set``."""
    keep = np.ones((terms.size, 1), bool) if targets is None else terms[:, None] != np.asarray(targets)[None, :]
    counts = keep.sum(axis=0).tolist() if spec.fism_norm == FISM_NORM_EXCLUDED else [terms.size] * keep.shape[1]
    return keep, np.array([float(max(1, n)) ** spec.alpha for n in counts])


def user_rows(
    spec: ModelSpec,
    tables: EmbeddingTables,
    u: int,
    terms: Optional[np.ndarray] = None,
    targets: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The user representation of ``spec.variant`` fed to the merge
    function: ``(B, K)``, row b built for ``targets[b]``, or one row with
    nothing excluded when ``targets`` is None. ``terms`` is the history's
    ``history_terms`` (read only when the variant reads history); indices
    are not checked here."""
    variant = spec.variant
    if not variant.reads_history:
        own = tables.P[u : u + 1]
        return own.copy() if targets is None else own.repeat(len(targets), axis=0)
    keep, scales = _history_weights(spec, terms, targets)
    FU = np.where(keep[:, :, None], tables.Qp[terms][:, None, :], 0.0).sum(axis=0) / scales[:, None]
    if "P" in variant.tables:
        FU += tables.P[u]
    return FU


def scatter_user_gradient(
    spec: ModelSpec,
    u: int,
    targets: Sequence[int],
    terms: Sequence[int],
    d_FU: np.ndarray,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Adjoint of user_rows over a batch of targets.

    Row b of ``d_FU`` is the gradient of the representation built for
    ``targets[b]``; ``terms`` are the distinct history items, in any order.
    Returns ``{section: (rows, grads)}`` for the variant's P and/or Qp,
    every touched row listed once with its gradient summed over the batch.
    The user row takes the sum of every row of d_FU; the history table
    takes ``d_FU[b] / n_b**alpha`` on the history rows that target b keeps.
    """
    variant, out = spec.variant, {}
    if "P" in variant.tables:
        out["P"] = (np.array([u]), d_FU.sum(axis=0, keepdims=True))
    if variant.reads_history:
        terms = np.asarray(terms, dtype=np.int64)
        keep, scales = _history_weights(spec, terms, targets)
        scaled = d_FU / scales[:, None]
        touched = keep.any(axis=1)
        if not touched.all():
            terms, keep = terms[touched], keep[touched]
        out["Qp"] = (terms, np.where(keep[:, :, None], scaled[None], 0.0).sum(axis=1))
    return out
