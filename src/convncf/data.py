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
import re
import zlib
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Iterator

import numpy as np

EVAL_NEGATIVES = 999
HISTORY_PAD = -1  # fills a row of history terms past its last term
LOAD_BLOCK_CHARS = 1 << 21  # text split into fields at once by load_interactions


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
        M=M, N=N, indptr=indptr, items=items[rows], stamps=stamps[rows], keys=keys, user_ids=user_ids, item_ids=item_ids
    )


# A line that is neither a comment nor user<TAB>item<TAB>timestamp (the
# timestamp an optional sign, then ASCII digits; int() also takes '1_000',
# ' 7' and '١٢'). Searched in "\n" + text: a match is the newline before it.
_BAD_LINE = re.compile(r"\n(?!\Z|#|[^\t\n#][^\t\n]*\t[^\t\n]+\t[+-]?[0-9]+(?:\n|\Z))")
_COMMENT = re.compile(r"^#.*\n?", re.MULTILINE)


def _first_bad_line(text: str) -> ParseError:
    """The error for the first line of ``text`` that breaks a rule of the
    format; ``text`` must hold one."""
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()  # the empty piece after the last newline is no line
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            return ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        raw_u, raw_i, ts_text = parts
        if not raw_u or not raw_i:
            return ParseError(f"line {lineno}: empty user or item id")
        if not ((ts_text.isdigit() or ts_text[:1] in ("+", "-") and ts_text[1:].isdigit()) and ts_text.isascii()):
            return ParseError(f"line {lineno}: timestamp {ts_text!r} is not a base-10 integer")
        if not -(2**63) <= int(ts_text) < 2**63:
            return ParseError(f"line {lineno}: timestamp {ts_text!r} is outside the int64 range")


def _dense(raw: list[str], index: dict[str, int]) -> np.ndarray:
    """The index of each raw id, as int64; ids new to ``index`` join it in
    order of first appearance."""
    index.update(zip([r for r in dict.fromkeys(raw) if r not in index], count(len(index))))
    return np.fromiter(map(index.__getitem__, raw), dtype=np.int64, count=len(raw))


def load_interactions(path: str) -> Dataset:
    """Parse an interaction file; see the module docstring for the format.

    The whole text is checked against the format at once, then split into
    fields in blocks of whole lines of about ``LOAD_BLOCK_CHARS``, so that
    one block's field strings are held at a time. Only a malformed text is
    walked line by line, to name its first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if _BAD_LINE.search("\n" + text):
        raise _first_bad_line(text)
    body = _COMMENT.sub("", text) if "#" in text else text
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    columns: tuple[list[np.ndarray], ...] = ([], [], [])
    start = 0
    while start < len(body):
        # through the first newline at least LOAD_BLOCK_CHARS on, or to the end
        end = body.find("\n", start + LOAD_BLOCK_CHARS) + 1 or len(body)
        fields = body[start:end].replace("\n", "\t").split("\t")
        if not fields[-1]:
            fields.pop()  # after the block's last newline
        users, items = fields[0::3], fields[1::3]
        try:
            stamps = np.fromiter(map(int, fields[2::3]), dtype=np.int64, count=len(users))
        except OverflowError:
            raise _first_bad_line(text) from None
        for column, rows in zip(columns, (_dense(users, user_index), _dense(items, item_index), stamps)):
            column.append(rows)
        start = end
    users, items, stamps = (np.concatenate([np.zeros(0, dtype=np.int64), *column]) for column in columns)
    return _assemble(users, items, stamps, list(user_index), list(item_index))


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
    eval_negatives: dict[int, np.ndarray] = {}
    tested: list[int] = []  # the users with held-out rows, ascending
    val_rows: list[int] = []
    bounds = ds.indptr.tolist()
    unseen = np.ones(ds.N, dtype=bool)  # cleared at one user's items, then restored
    for u in range(ds.M):
        lo, hi = bounds[u], bounds[u + 1]
        if hi - lo < 3:
            continue
        tested.append(u)
        val_rows.append(lo + int(rng.integers(hi - lo - 1)))

        seen = ds.items[lo:hi]
        unseen[seen] = False
        complement = np.flatnonzero(unseen)
        unseen[seen] = True
        if complement.size == 0:
            raise ProtocolError(
                f"user {ds.user_ids[u]!r} (index {u}) interacted with every item; no negatives exist"
            )
        n_neg = min(EVAL_NEGATIVES, complement.size)
        eval_negatives[u] = rng.choice(complement, size=n_neg, replace=False)

    val_rows, test_rows = np.array(val_rows, dtype=np.int64), ds.indptr[1:][tested] - 1
    validation, test = (
        dict(zip(tested, map(Interaction, tested, ds.items[rows].tolist(), ds.stamps[rows].tolist())))
        for rows in (val_rows, test_rows)
    )
    held = np.zeros(ds.n_interactions, dtype=bool)
    held[val_rows] = held[test_rows] = True
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
        skipped_users=ds.M - len(tested),
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
    lines: list[str] = []
    for u in range(ds.M):
        user, rows = ds.user_ids[u], range(bounds[u], bounds[u + 1])
        lines += (f"{user}\t{ds.item_ids[items[row]]}\t{stamps[row]}\ttrain\n" for row in rows)
        if u in split.validation:
            for x, tag in ((split.validation[u], "val"), (split.test[u], "test")):
                lines.append(f"{user}\t{ds.item_ids[x.item]}\t{x.timestamp}\t{tag}\n")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    os.replace(tmp, path)
