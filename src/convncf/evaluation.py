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

Users are scored a group at a time. One ``user_rows`` call builds the
group's user rows, FISM and SVD++ summing the split's padded history terms
(``SplitSet.history_rows``). The group's candidate rows are laid end to
end, each paired with its user's row, and scored through the model's one
head in blocks of ``model.block_rows`` rows that may span users (at K=4 C=8
about four users per block); two or more blocks run on the scoring pool. A
target's rank is then a count over its user's segment of the scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from convncf.data import Dataset, SplitSet
from convncf.embeddings import EmbeddingTables, Variant, user_rows
from convncf.model import CandidateIndexError, IdentityHead, MergeKind, ModelSpec, block_rows, check_items, score_rows

DEFAULT_KS = (5, 10, 20)
# Scoring blocks' worth of candidate rows per group of users, which bounds
# the group's index arrays; a user is never split over two groups.
GROUP_BLOCKS = 8


class EvaluationError(RuntimeError):
    """Scoring failed for a specific user; the message names the user."""


@dataclass
class EvalResult:
    hr: dict[int, float]
    ndcg: dict[int, float]
    users_evaluated: int
    ranks: dict[int, int] = field(default_factory=dict, repr=False)


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

    Users are scored a group at a time, in blocks that may span users (see
    the module docstring); a failure raises EvaluationError naming the
    first user of the failing block or group, or the first user whose index,
    history or candidates failed their check.
    """
    if which not in ("test", "val"):
        raise ValueError(f"unknown evaluation split {which!r}")
    served = (which,) if spec.variant.reads_history else ("val", "test")
    store = {} if store is None else store
    users = sorted(splits.test)
    todo = [u for u in users if (u, which) not in store]
    for group in _groups(todo, splits, len(served), GROUP_BLOCKS * block_rows(spec)):
        store.update(_rank_group(spec, tables, splits, group, served))

    ranks = {u: store[(u, which)] for u in users}
    n = len(users)
    hr = {k: sum(hr_at_k(ranks[u], k) for u in users) / n if n else 0.0 for k in DEFAULT_KS}
    ndcg = {k: sum(ndcg_at_k(ranks[u], k) for u in users) / n if n else 0.0 for k in DEFAULT_KS}
    return EvalResult(hr=hr, ndcg=ndcg, users_evaluated=n, ranks=ranks)


def _groups(users: list[int], splits: SplitSet, targets: int, rows: int) -> Iterator[list[int]]:
    """Consecutive runs of ``users``, each closed once its candidate rows
    (negatives plus ``targets`` per user) reach ``rows``."""
    group, size = [], 0
    for u in users:
        group.append(u)
        size += splits.eval_negatives[u].shape[0] + targets
        if size >= rows:
            yield group
            group, size = [], 0
    if group:
        yield group


def _rank_group(
    spec: ModelSpec, tables: EmbeddingTables, splits: SplitSet, group: list[int], served: tuple[str, ...]
) -> dict[tuple[int, str], int]:
    """Ranks of the served targets of a group of users, by (user, split).

    A user's rows are ``[first target, negatives..., second target]``; the
    targets are the served splits' held-out items, and ``owner`` maps each
    row to its user's place in the group. Each target's rank is one plus the
    count of its user's negatives scoring strictly higher.
    """
    held_out = {"val": splits.validation, "test": splits.test}
    negatives = [splits.eval_negatives[u] for u in group]
    n_neg = np.array([neg.shape[0] for neg in negatives], dtype=np.int64)
    width = n_neg + len(served)
    first = np.cumsum(width) - width
    target_rows = (first, first + n_neg + 1)[: len(served)]
    items = np.empty(int(width.sum()), dtype=np.int64)
    is_negative = np.ones(items.shape[0], dtype=bool)
    for rows, split in zip(target_rows, served):
        items[rows] = [held_out[split][u].item for u in group]
        is_negative[rows] = False
    items[is_negative] = np.concatenate(negatives)
    owner = np.repeat(np.arange(len(group)), width)

    users = np.array(group)
    terms = splits.history_rows(users, include_validation=served == ("test",)) if spec.variant.reads_history else None
    bad_user = np.zeros(len(group), dtype=bool) if tables.M is None else users >= tables.M
    bad = bad_user if terms is None else bad_user | (terms >= tables.N).any(axis=1)
    if bad.any():
        k = int(bad.argmax())
        exc = IndexError(f"user index {group[k]} out of range [0, {tables.M})" if bad_user[k] else "history item index out of range")
        raise _failed(splits, group[k], exc) from exc
    try:
        check_items(items, tables.N)
    except CandidateIndexError as exc:
        raise _failed(splits, group[owner[exc.position]], exc) from exc
    scores = np.empty(items.shape[0])
    done = 0  # rows scored so far: a failing block starts at row `done`
    try:
        FU = user_rows(spec, tables, users, terms)  # a failure here names the group's first user
        for block in score_rows(spec, FU, tables.Q, items, owner):
            scores[done : done + block.shape[0]] = block
            done += block.shape[0]
    except Exception as exc:
        raise _failed(splits, group[owner[done]], exc) from exc

    ranks = {}
    for rows, split in zip(target_rows, served):
        above = scores > np.repeat(scores[rows], width)  # each row against its user's target
        above &= is_negative
        counts = np.add.reduceat(above, first, dtype=np.int64)  # per user: every width is >= 1
        ranks.update(((u, split), 1 + c) for u, c in zip(group, counts.tolist()))
    return ranks


def _failed(splits: SplitSet, u: int, exc: Exception) -> EvaluationError:
    return EvaluationError(f"scoring failed for user {splits.train.user_ids[u]!r} (index {u}): {exc}")


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
