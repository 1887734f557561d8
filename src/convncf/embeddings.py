"""Embedding tables, the user representation and its adjoint.

Three user representations share one target-item table ``Q``:

* ``MF``: a free vector per user id, a row of ``P``.
* ``FISM``: the normalized sum of a separate history-item table ``Qp``
  over the user's interacted items, with the current target item excluded
  from the sum so it cannot leak its own embedding into the score. No ``P``.
* ``SVDPP``: the MF vector plus the FISM sum.

``Variant.tables`` is the one declaration of the tables each representation
owns, in checkpoint order, and ``reads_history`` follows from it.

A history enters as its terms, its distinct items ascending: the split's,
or ``history_terms`` of a caller's own. ``user_rows`` builds rows of (user,
padded history terms, optional target) and ``scatter_user_gradient`` is its
adjoint for one user, into the caller's buffers; both read one keep/norm
rule from the model spec. The FISM normalizer is ``1 / n**alpha``. By
default ``n`` counts the items actually summed (the history with the target
removed, clamped to at least one so an empty sum stays well-defined);
``fism_norm="full_set"`` instead uses the size of the full history set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from convncf.data import HISTORY_PAD

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
    """The distinct history items, ascending: the terms a history sum adds,
    in the order it adds them."""
    return np.unique(np.asarray(history, dtype=np.int64))


def _history_weights(spec: ModelSpec, terms: np.ndarray, targets: Optional[Sequence[int]]):
    """The keep/norm rule of rows of history sums, shared by the forward and
    its adjoint: ``(keep, scales)``, for ``terms`` ``(B, h)`` or a shared
    ``(1, h)``. ``keep[r, b]``: row b adds its term r, neither padding nor
    ``targets[b]``. ``scales[b]`` is ``max(1, n_b) ** spec.alpha``, n_b the
    terms row b keeps, or all its terms under ``full_set`` (one if shared)."""
    held = terms != HISTORY_PAD
    keep = held if targets is None else held & (terms != np.asarray(targets)[:, None])
    counts = (keep if spec.fism_norm == FISM_NORM_EXCLUDED else held).sum(axis=1).tolist()
    return keep.T, np.array([float(max(1, n)) ** spec.alpha for n in counts])


def user_rows(
    spec: ModelSpec,
    tables: EmbeddingTables,
    users: Sequence[int],
    terms: Optional[np.ndarray] = None,
    targets: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The user representation of ``spec.variant`` fed to the merge
    function, ``(B, K)``: row b for user ``users[b]`` over ``terms[b]`` less
    ``targets[b]`` (if given); indices are not checked here. The ``(h, B,
    K)`` gather, summed over its first axis, adds each row's terms in order,
    padding zeros last."""
    variant = spec.variant
    own = tables.P.take(users, axis=0) if "P" in variant.tables else None
    if not variant.reads_history:
        return own
    keep, scales = _history_weights(spec, terms, targets)
    FU = np.where(keep[:, :, None], tables.Qp[terms.T], 0.0).sum(axis=0) / scales[:, None]
    if own is not None:
        FU += own
    return FU


def scatter_user_gradient(
    spec: ModelSpec,
    u: int,
    terms: np.ndarray,
    targets: Sequence[int],
    d_FU: np.ndarray,
    out: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Adjoint of user_rows over one user's batch of targets.

    Row b of ``d_FU`` is the gradient of the representation built for
    ``targets[b]``; ``terms`` are the user's distinct history items, a 1-D
    array in any order. Returns ``{table: rows}`` for the variant's P and/or
    Qp, every touched row listed once, and writes each row's gradient,
    summed over the batch, to its place in the leading rows of ``out[table]``
    (``out["P"]`` is the one row, ``(1, K)``).
    The user row takes the sum of every row of d_FU; the history table takes
    ``d_FU[b] / n_b**alpha`` on the history rows that target b keeps.
    """
    variant, rows = spec.variant, {}
    if "P" in variant.tables:
        np.add.reduce(d_FU, axis=0, keepdims=True, out=out["P"])
        rows["P"] = np.array([u])
    if variant.reads_history:
        keep, scales = _history_weights(spec, terms[None], targets)
        scaled = d_FU / scales[:, None]
        touched = keep.any(axis=1)
        if not touched.all():
            terms, keep = terms[touched], keep[touched]
        np.add.reduce(np.where(keep[:, :, None], scaled[None], 0.0), axis=1, out=out["Qp"][: len(terms)])
        rows["Qp"] = terms
    return rows
