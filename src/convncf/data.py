"""Interaction logs: ingestion, filtering, splits, batches, negative sampling.

The on-disk format is one record per line, ``user<TAB>item<TAB>timestamp``,
with ``#`` comment lines ignored. Raw ids are arbitrary tab-free strings and
get dense indices in first-appearance order; timestamps are base-10 integers,
an optional sign then ASCII digits, in the int64 range. Repeated (user, item)
pairs collapse to the earliest timestamp.

A log is held as CSR (compressed sparse row) arrays: user u's rows are
``items[indptr[u]:indptr[u + 1]]`` with their ``stamps``, ascending by
(timestamp, raw item id). ``keys`` is the sorted array of ``u * N + i`` over
every row, the index that membership tests search.

User u's segment of ``keys`` less ``u * N``, ascending and distinct, is the
history FISM and SVD++ sum (``Dataset.terms_of``, ``SplitSet.history_rows``).

Splitting holds out the latest interaction per user as test and one seeded
uniform pick from the remainder as validation; users with fewer than three
interactions stay train-only and are counted, not dropped. Each test user
gets min(999, N - |R_u|) distinct evaluation negatives drawn outside their
full interaction set, fixed once per split so that per-epoch metrics are
comparable. Training negatives are drawn a minibatch at a time:
``sample_negative`` takes an array of user indices.
"""

from __future__ import annotations

import os
import zlib
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

EVAL_NEGATIVES = 999
HISTORY_PAD = -1  # fills a row of history terms past its last term


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
    """One held-out row of a split."""

    user: int
    item: int
    timestamp: int


@dataclass
class Dataset:
    """An immutable interaction log with dense ids, as CSR arrays (see the
    module docstring); every array is int64."""

    M: int
    N: int
    indptr: np.ndarray = field(repr=False)
    items: np.ndarray = field(repr=False)
    stamps: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    user_ids: list[str]
    item_ids: list[str]
    user_index: dict[str, int] = field(repr=False)
    item_index: dict[str, int] = field(repr=False)

    @property
    def n_interactions(self) -> int:
        return len(self.items)

    def items_of(self, u: int) -> list[int]:
        return self.items[self.indptr[u] : self.indptr[u + 1]].tolist()

    def terms_of(self, u: int) -> np.ndarray:
        """User u's history terms: their distinct items, ascending."""
        return self.keys[self.indptr[u] : self.indptr[u + 1]] - u * self.N

    def has(self, u, i):
        """Whether user u interacted with item i, elementwise over index
        arrays: one binary search of ``keys``."""
        k = np.asarray(u) * self.N + i
        p = self.keys.searchsorted(k)
        return self.keys[np.minimum(p, self.keys.size - 1)] == k

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (user, item) interactions as parallel index arrays."""
        return np.repeat(np.arange(self.M), np.diff(self.indptr)), self.items

    def item_counts(self) -> np.ndarray:
        """Interactions per item, as an int64 array of length N."""
        return np.bincount(self.items, minlength=self.N)


def _assemble(
    users: np.ndarray, items: np.ndarray, stamps: np.ndarray, user_ids: list[str], item_ids: list[str]
) -> Dataset:
    """Build a Dataset from parallel int64 row arrays in any order and fixed
    id orders; a repeated (user, item) pair keeps its earliest stamp."""
    M, N = len(user_ids), len(item_ids)
    keys = users * N + items
    # by (user, item) then stamp, so each pair's first row is its earliest
    rows = np.lexsort((stamps, keys))
    keys = keys[rows]
    earliest = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=earliest[1:])
    rows, keys = rows[earliest], keys[earliest]
    rank = np.empty(N, dtype=np.int64)
    rank[sorted(range(N), key=item_ids.__getitem__)] = np.arange(N)  # raw-id order
    rows = rows[np.lexsort((rank[items[rows]], stamps[rows], users[rows]))]
    indptr = np.zeros(M + 1, dtype=np.int64)
    np.cumsum(np.bincount(users[rows], minlength=M), out=indptr[1:])
    return Dataset(
        M=M, N=N, indptr=indptr, items=items[rows], stamps=stamps[rows], keys=keys,
        user_ids=user_ids, item_ids=item_ids,
        user_index={raw: k for k, raw in enumerate(user_ids)},
        item_index={raw: k for k, raw in enumerate(item_ids)},
    )


def load_interactions(path: str) -> Dataset:
    """Parse an interaction file; see the module docstring for the format."""
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


def satisfies_thresholds(ds: Dataset, min_item: int, min_user: int) -> bool:
    """True when every item and every user meets its interaction threshold."""
    if ds.N and ds.item_counts().min() < min_item:
        return False
    return bool(np.all(np.diff(ds.indptr) >= min_user))


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
    users, items = ds.pairs()
    kept = (ds.item_counts() >= min_item)[items]
    keep_user = np.bincount(users[kept], minlength=ds.M) >= min_user
    kept &= keep_user[users]
    used_items = np.unique(items[kept])
    new_item = np.zeros(ds.N, dtype=np.int64)
    new_item[used_items] = np.arange(used_items.size)
    out = _assemble(
        (np.cumsum(keep_user) - 1)[users[kept]],
        new_item[items[kept]],
        ds.stamps[kept],
        [ds.user_ids[u] for u in np.flatnonzero(keep_user).tolist()],
        [ds.item_ids[i] for i in used_items.tolist()],
    )
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
        """A user's positives as a list: train items, then the validation item if asked."""
        items = self.train.items_of(u)
        if include_validation and u in self.validation:
            items.append(self.validation[u].item)
        return items

    def history_rows(self, users: np.ndarray, include_validation: bool) -> np.ndarray:
        """Row b: user ``users[b]``'s train terms, with their validation item
        in its ascending place when ``include_validation`` (its key, deleted
        by the split, searches to it), then ``HISTORY_PAD`` to the longest."""
        train, users = self.train, np.asarray(users, dtype=np.int64)
        lo, offset = train.indptr[users][:, None], users[:, None] * train.N
        n = train.indptr[users + 1][:, None] - lo
        at, val = n, HISTORY_PAD  # without a validation item, slot n is padding
        if include_validation:
            val = np.array([self.validation[u].item for u in users.tolist()], dtype=np.int64)[:, None]
            at, n = train.keys.searchsorted(offset + val) - lo, n + 1
        col = np.arange(n.max(initial=0))
        terms = train.keys.take(lo + col - (col > at), mode="clip") - offset
        return np.where(col < n, np.where(col == at, val, terms), HISTORY_PAD)


def split_leave_latest_out(ds: Dataset, seed) -> SplitSet:
    """Deterministic leave-latest-out split; see the module docstring."""
    rng = np.random.default_rng(seed)
    held = np.zeros(ds.n_interactions, dtype=bool)
    validation: dict[int, Interaction] = {}
    test: dict[int, Interaction] = {}
    eval_negatives: dict[int, np.ndarray] = {}
    skipped = 0
    bounds = ds.indptr.tolist()
    for u in range(ds.M):
        lo, hi = bounds[u], bounds[u + 1]
        if hi - lo < 3:
            skipped += 1
            continue
        val = lo + int(rng.integers(hi - lo - 1))
        test[u] = Interaction(u, int(ds.items[hi - 1]), int(ds.stamps[hi - 1]))
        validation[u] = Interaction(u, int(ds.items[val]), int(ds.stamps[val]))
        held[[val, hi - 1]] = True

        mask = np.ones(ds.N, dtype=bool)
        mask[ds.items[lo:hi]] = False
        complement = np.flatnonzero(mask)
        if complement.size == 0:
            raise ProtocolError(
                f"user {ds.user_ids[u]!r} (index {u}) interacted with every item; no negatives exist"
            )
        n_neg = min(EVAL_NEGATIVES, complement.size)
        eval_negatives[u] = rng.choice(complement, size=n_neg, replace=False)

    users, items = ds.pairs()
    kept = ~held
    indptr = np.zeros_like(ds.indptr)
    np.cumsum(np.bincount(users[kept], minlength=ds.M), out=indptr[1:])
    train = replace(
        ds,
        indptr=indptr,
        items=items[kept],
        stamps=ds.stamps[kept],
        keys=np.delete(ds.keys, ds.keys.searchsorted(users[held] * ds.N + items[held])),
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
    us, its = train.pairs()
    perm = rng.permutation(us.shape[0])
    us, its = us[perm], its[perm]
    for start in range(0, us.shape[0], batch_size):
        yield us[start : start + batch_size], its[start : start + batch_size]


def sample_negative(train: Dataset, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw per entry of the 1-D index array ``users`` from the
    items that user never interacted with, by rejection.

    Each entry gets the item that drawing for one user after another gives
    it: ``rng.integers(N, size=k)`` yields the next k values of the stream,
    k the users still waiting, and a rejected value passes its user's turn
    on to the next value. A rejection shifts every later value onto the
    next user, so one ``keys`` search tests a window of about twice the
    last accepted run, not every value still pending.
    """
    users = np.asarray(users, dtype=np.int64)
    full = train.indptr[users + 1] - train.indptr[users] >= train.N
    if full.any():
        u = int(users[full.argmax()])
        raise SamplingError(f"user index {u} interacted with every item; cannot sample a negative")
    out = np.empty_like(users)
    done, width = 0, users.size
    while done < users.size:
        values = rng.integers(train.N, size=users.size - done)
        while values.size:
            run = values[:width]
            taken = ~train.has(users[done : done + run.size], run)
            n = run.size if taken.all() else int(taken.argmin())
            out[done : done + n] = run[:n]
            done += n
            values = values[n + (n < run.size) :]
            width = max(8, 2 * n)
    return out


def write_manifest(split: SplitSet, path: str) -> None:
    """Emit every interaction as TSV with a fourth column train|val|test,
    grouped per user in dense order."""
    ds = split.train
    bounds, items, stamps = ds.indptr.tolist(), ds.items.tolist(), ds.stamps.tolist()
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for u in range(ds.M):
            user = ds.user_ids[u]
            for row in range(bounds[u], bounds[u + 1]):
                fh.write(f"{user}\t{ds.item_ids[items[row]]}\t{stamps[row]}\ttrain\n")
            if u in split.validation:
                for x, tag in ((split.validation[u], "val"), (split.test[u], "test")):
                    fh.write(f"{user}\t{ds.item_ids[x.item]}\t{x.timestamp}\t{tag}\n")
    os.replace(tmp, path)
