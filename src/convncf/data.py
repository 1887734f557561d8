"""Interaction logs: ingestion, filtering, splits, batches, negative sampling.

The on-disk format is one record per line, ``user<TAB>item<TAB>timestamp``,
with ``#`` comment lines ignored. Raw ids are arbitrary tab-free strings and
get dense indices in first-appearance order. Repeated (user, item) pairs
collapse to the earliest timestamp.

Splitting holds out the latest interaction per user as test and one seeded
uniform pick from the remainder as validation; users with fewer than three
interactions stay train-only and are counted, not dropped. Each test user
gets min(999, N - |R_u|) distinct evaluation negatives drawn outside their
full interaction set, fixed once per split so that per-epoch metrics are
comparable.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

EVAL_NEGATIVES = 999


class ParseError(ValueError):
    """A malformed interaction-file line; the message carries the line number."""


class ProtocolError(ValueError):
    """The split protocol cannot be satisfied (e.g. a user saw every item)."""


class SamplingError(ValueError):
    """Negative sampling has an empty complement to draw from."""


def derive_seed(root_seed: int, purpose: str):
    """Independent named rng stream: same root, different purposes never collide."""
    return np.random.SeedSequence([root_seed, zlib.crc32(purpose.encode("ascii"))])


@dataclass(frozen=True)
class Interaction:
    user: int
    item: int
    timestamp: int


@dataclass
class Dataset:
    """An immutable interaction log with dense ids.

    per_user[u] is sorted ascending by (timestamp, raw item id), so the last
    element is the latest interaction under the deterministic tie-break.
    """

    M: int
    N: int
    per_user: list[list[Interaction]]
    user_ids: list[str]
    item_ids: list[str]
    user_index: dict[str, int] = field(repr=False)
    item_index: dict[str, int] = field(repr=False)
    _item_sets: list[frozenset] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self._item_sets:
            self._item_sets = [frozenset(x.item for x in rows) for rows in self.per_user]

    @property
    def n_interactions(self) -> int:
        return sum(len(rows) for rows in self.per_user)

    def items_of(self, u: int) -> list[int]:
        return [x.item for x in self.per_user[u]]

    def item_set(self, u: int) -> frozenset:
        return self._item_sets[u]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (user, item) interactions as parallel index arrays."""
        us = np.fromiter(
            (x.user for rows in self.per_user for x in rows), dtype=np.int64, count=self.n_interactions
        )
        its = np.fromiter(
            (x.item for rows in self.per_user for x in rows), dtype=np.int64, count=self.n_interactions
        )
        return us, its

    def item_counts(self) -> np.ndarray:
        """Interactions per item, as an int64 array of length N."""
        return np.bincount(self.pairs()[1], minlength=self.N)


def _assemble(
    triples: Sequence[tuple[str, str, int]],
    user_ids: list[str],
    item_ids: list[str],
) -> Dataset:
    """Build a Dataset from deduplicated raw triples and fixed id orders."""
    user_index = {raw: k for k, raw in enumerate(user_ids)}
    item_index = {raw: k for k, raw in enumerate(item_ids)}
    per_user: list[list[Interaction]] = [[] for _ in user_ids]
    for raw_u, raw_i, ts in triples:
        per_user[user_index[raw_u]].append(Interaction(user_index[raw_u], item_index[raw_i], ts))
    for u, rows in enumerate(per_user):
        rows.sort(key=lambda x: (x.timestamp, item_ids[x.item]))
    return Dataset(
        M=len(user_ids),
        N=len(item_ids),
        per_user=per_user,
        user_ids=user_ids,
        item_ids=item_ids,
        user_index=user_index,
        item_index=item_index,
    )


def load_interactions(path: str) -> Dataset:
    """Parse an interaction file; see the module docstring for the format."""
    user_ids: list[str] = []
    item_ids: list[str] = []
    seen_user: dict[str, int] = {}
    seen_item: dict[str, int] = {}
    earliest: dict[tuple[str, str], int] = {}
    order: list[tuple[str, str]] = []
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
            try:
                ts = int(ts_text)
            except ValueError:
                raise ParseError(f"line {lineno}: timestamp {ts_text!r} is not a base-10 integer") from None
            if raw_u not in seen_user:
                seen_user[raw_u] = len(user_ids)
                user_ids.append(raw_u)
            if raw_i not in seen_item:
                seen_item[raw_i] = len(item_ids)
                item_ids.append(raw_i)
            key = (raw_u, raw_i)
            if key not in earliest:
                earliest[key] = ts
                order.append(key)
            elif ts < earliest[key]:
                earliest[key] = ts
    triples = [(u, i, earliest[(u, i)]) for u, i in order]
    return _assemble(triples, user_ids, item_ids)


def satisfies_thresholds(ds: Dataset, min_item: int, min_user: int) -> bool:
    """True when every item and every user meets its interaction threshold."""
    if ds.N and ds.item_counts().min() < min_item:
        return False
    return all(len(rows) >= min_user for rows in ds.per_user)


@dataclass
class FilterResult:
    dataset: Dataset
    stable: bool  # re-applying the same thresholds would change nothing


def filter_dataset(ds: Dataset, min_item: int, min_user: int) -> FilterResult:
    """One pass dropping sparse items, then one pass dropping sparse users.

    Removing users can push an item back below its threshold; that is not
    iterated, only reported through ``stable``.
    """
    if min_item < 1 or min_user < 1:
        raise ValueError("filter thresholds must be >= 1")
    keep_item = ds.item_counts() >= min_item

    survivors: list[list[Interaction]] = []
    keep_user = []
    for rows in ds.per_user:
        kept = [x for x in rows if keep_item[x.item]]
        keep_user.append(len(kept) >= min_user)
        survivors.append(kept)

    user_ids = [ds.user_ids[u] for u in range(ds.M) if keep_user[u]]
    used_items = sorted({x.item for u, rows in enumerate(survivors) if keep_user[u] for x in rows})
    item_ids = [ds.item_ids[i] for i in used_items]
    triples = [
        (ds.user_ids[u], ds.item_ids[x.item], x.timestamp)
        for u, rows in enumerate(survivors)
        if keep_user[u]
        for x in rows
    ]
    out = _assemble(triples, user_ids, item_ids)
    return FilterResult(dataset=out, stable=satisfies_thresholds(out, min_item, min_user))


@dataclass
class SplitSet:
    """Leave-latest-out split. Indices are shared with the parent dataset."""

    train: Dataset
    validation: dict[int, Interaction]
    test: dict[int, Interaction]
    eval_negatives: dict[int, np.ndarray]
    skipped_users: int

    def history_items(self, u: int, include_validation: bool) -> list[int]:
        """Known-positive history for scoring: train items, optionally plus
        the validation item (used when scoring the test split)."""
        items = self.train.items_of(u)
        if include_validation and u in self.validation:
            items = items + [self.validation[u].item]
        return items


def split_leave_latest_out(ds: Dataset, seed) -> SplitSet:
    """Deterministic leave-latest-out split; see the module docstring."""
    rng = np.random.default_rng(seed)
    train_rows: list[list[Interaction]] = []
    validation: dict[int, Interaction] = {}
    test: dict[int, Interaction] = {}
    eval_negatives: dict[int, np.ndarray] = {}
    skipped = 0
    for u in range(ds.M):
        rows = ds.per_user[u]
        if len(rows) < 3:
            skipped += 1
            train_rows.append(list(rows))
            continue
        test[u] = rows[-1]
        remainder = rows[:-1]
        val_pos = int(rng.integers(len(remainder)))
        validation[u] = remainder[val_pos]
        train_rows.append([x for k, x in enumerate(remainder) if k != val_pos])

        mask = np.ones(ds.N, dtype=bool)
        mask[[x.item for x in rows]] = False
        complement = np.flatnonzero(mask)
        if complement.size == 0:
            raise ProtocolError(
                f"user {ds.user_ids[u]!r} (index {u}) interacted with every item; no negatives exist"
            )
        n_neg = min(EVAL_NEGATIVES, complement.size)
        eval_negatives[u] = rng.choice(complement, size=n_neg, replace=False).astype(np.int64)

    train = Dataset(
        M=ds.M,
        N=ds.N,
        per_user=train_rows,
        user_ids=ds.user_ids,
        item_ids=ds.item_ids,
        user_index=ds.user_index,
        item_index=ds.item_index,
    )
    return SplitSet(
        train=train,
        validation=validation,
        test=test,
        eval_negatives=eval_negatives,
        skipped_users=skipped,
    )


def minibatches(
    train: Dataset, batch_size: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Fresh uniform shuffle of all train interactions, then consecutive
    slices; the last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    us, its = train.pairs()
    perm = rng.permutation(us.shape[0])
    us, its = us[perm], its[perm]
    for start in range(0, us.shape[0], batch_size):
        yield us[start : start + batch_size], its[start : start + batch_size]


def sample_negative(train: Dataset, u: int, rng: np.random.Generator) -> int:
    """Uniform draw from the items u never interacted with, by rejection."""
    positives = train.item_set(u)
    if len(positives) >= train.N:
        raise SamplingError(f"user index {u} interacted with every item; cannot sample a negative")
    while True:
        j = int(rng.integers(train.N))
        if j not in positives:
            return j


def write_manifest(split: SplitSet, path: str) -> None:
    """Emit every interaction as TSV with a fourth column train|val|test,
    grouped per user in dense order."""
    ds = split.train
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for u in range(ds.M):
            for x in ds.per_user[u]:
                fh.write(f"{ds.user_ids[u]}\t{ds.item_ids[x.item]}\t{x.timestamp}\ttrain\n")
            if u in split.validation:
                v = split.validation[u]
                fh.write(f"{ds.user_ids[u]}\t{ds.item_ids[v.item]}\t{v.timestamp}\tval\n")
                t = split.test[u]
                fh.write(f"{ds.user_ids[u]}\t{ds.item_ids[t.item]}\t{t.timestamp}\ttest\n")
    os.replace(tmp, path)
