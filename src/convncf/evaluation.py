"""Ranked top-k evaluation over fixed sampled negatives, plus ItemPop.

For every eligible user the target item is scored against that user's fixed
negative candidates; the rank is one plus the number of candidates scoring
strictly higher, so ties resolve optimistically and any strictly increasing
transform of the scores leaves every metric unchanged.

HR@k is 1 when the rank is within k. NDCG@k uses the one-relevant-item
reduction, 1/log2(rank+1) inside the cutoff and 0 outside, whose ideal value
is exactly 1.

Scoring the validation split uses train-only history; scoring the test split
uses train plus validation. The test item never enters any history. A model
whose user vector ignores history (MF, and so ItemPop) scores both targets
and the negatives in one pass that serves both splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from convncf.data import Dataset, SplitSet
from convncf.embeddings import EmbeddingTables, Variant
from convncf.model import IdentityHead, MergeKind, ModelSpec, predict_batch

DEFAULT_KS = (5, 10, 20)


class EvaluationError(RuntimeError):
    """Scoring failed for a specific user; the message names the user."""


@dataclass
class EvalResult:
    hr: dict[int, float]
    ndcg: dict[int, float]
    users_evaluated: int
    ranks: dict[int, int] = field(default_factory=dict, repr=False)


def rank_of_target(scores: np.ndarray, target_index: int) -> int:
    """1 + the number of candidates scoring strictly above the target."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target_index < scores.shape[0]:
        raise IndexError(f"target index {target_index} out of range [0, {scores.shape[0]})")
    return 1 + int(np.sum(scores > scores[target_index]))


def hr_at_k(rank: int, k: int) -> int:
    if rank < 1 or k < 1:
        raise ValueError("rank and k must be >= 1")
    return 1 if rank <= k else 0


def ndcg_at_k(rank: int, k: int) -> float:
    if rank < 1 or k < 1:
        raise ValueError("rank and k must be >= 1")
    return 1.0 / math.log2(rank + 1) if rank <= k else 0.0


def evaluate(
    spec: ModelSpec,
    tables: EmbeddingTables,
    splits: SplitSet,
    which: str = "test",
    store: dict[tuple[int, str], int] | None = None,
) -> EvalResult:
    """Average HR@k / NDCG@k over every user carrying a held-out item.

    The candidate list is the target plus the user's fixed negatives; the
    negatives never intersect any split of the user's interactions, so the
    same list serves validation and test. Results are reduced per user id,
    making the outcome independent of evaluation order.

    A history-free model (MF, and so ItemPop) scores each user's validation
    target, negatives and test target in one pass and ranks each target
    against the negatives only. ``store`` keeps those ranks by (user,
    split), so the other split's call reads them instead of scoring again;
    ``training.evaluate_state`` gives a model state's val and test calls one
    fresh store. Without one, a call scores on its own. FISM and SVD++
    score one pass per split, since the test history holds the validation
    item.
    """
    if which not in ("test", "val"):
        raise ValueError(f"unknown evaluation split {which!r}")
    history_free = spec.variant is Variant.MF
    served = ("val", "test") if history_free else (which,)
    held_out = {"val": splits.validation, "test": splits.test}
    store = {} if store is None else store
    users = sorted(splits.test)
    for u in users:
        if (u, which) in store:
            continue
        held = np.array([held_out[split][u].item for split in served], dtype=np.int64)
        negatives = splits.eval_negatives[u]
        history = () if history_free else splits.history_items(u, include_validation=(which == "test"))
        # first target, negatives, second target: each target's contiguous
        # view of the scores holds it and the negatives only
        candidates = np.concatenate([held[:1], negatives, held[1:]])
        try:
            scores = predict_batch(spec, tables, u, candidates, history)
        except Exception as exc:
            raise EvaluationError(
                f"scoring failed for user {splits.train.user_ids[u]!r} (index {u}): {exc}"
            ) from exc
        n = negatives.shape[0]
        for split, view, at in zip(served, (scores[: n + 1], scores[1:]), (0, n)):
            store[(u, split)] = rank_of_target(view, at)

    ranks = {u: store[(u, which)] for u in users}
    n = len(users)
    hr = {k: sum(hr_at_k(ranks[u], k) for u in users) / n if n else 0.0 for k in DEFAULT_KS}
    ndcg = {k: sum(ndcg_at_k(ranks[u], k) for u in users) / n if n else 0.0 for k in DEFAULT_KS}
    return EvalResult(hr=hr, ndcg=ndcg, users_evaluated=n, ranks=ranks)


def itempop_scores(train: Dataset) -> np.ndarray:
    """Score of item i is its train interaction count."""
    return train.item_counts().astype(np.float64)


def make_itempop(train: Dataset) -> tuple[ModelSpec, EmbeddingTables]:
    """ItemPop as a width-1 inner-product model: user side all ones, item
    side the interaction counts. Checkpointing, evaluation, and
    recommendation then work unchanged."""
    tables = EmbeddingTables(
        P=np.ones((train.M, 1)),
        Q=itempop_scores(train).reshape(train.N, 1),
        Qp=None,
    )
    spec = ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=1)
    return spec, tables


def rolling_last10(history: Sequence[EvalResult]) -> EvalResult:
    """Arithmetic mean of the final min(10, len) entries, per metric."""
    if not history:
        raise ValueError("cannot average an empty history")
    window = history[-10:]
    ks = list(window[-1].hr)
    hr = {k: sum(r.hr[k] for r in window) / len(window) for k in ks}
    ndcg = {k: sum(r.ndcg[k] for r in window) / len(window) for k in ks}
    return EvalResult(hr=hr, ndcg=ndcg, users_evaluated=window[-1].users_evaluated)


def write_per_user_ranks(result: EvalResult, ds: Dataset, path: str) -> None:
    """Debug TSV: one `user<TAB>rank` line per evaluated user, dense order."""
    with open(path, "w", encoding="utf-8") as fh:
        for u in sorted(result.ranks):
            fh.write(f"{ds.user_ids[u]}\t{result.ranks[u]}\n")
