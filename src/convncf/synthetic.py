"""Seeded synthetic interaction logs with a planted low-rank preference
structure, used by the desk-scale learning tests and pipeline smoke runs.

Users and items get latent vectors of a small fixed rank; each user's
interactions are the top items of their noisy affinity row. Affinities are
z-scored per item first, which flattens global popularity so that a
popularity ranker stays weak while the low-rank structure remains fully
learnable. Timestamps are uniform random, making the held-out latest item a
uniform draw from each user's planted favorites.

The M x N affinity matrix is never held whole: rows are computed in chunks
of at most ``CHUNK_BYTES``, once for the per-item mean, once for the std and
once for the draws, so memory stays O(chunk + N) at any M. A log that fits
one chunk gets the bytes of the dense computation; with several chunks a row
may differ in its last bit, since BLAS may block a matrix product by its row
count.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator

import numpy as np

Triple = tuple[str, str, int]

CHUNK_BYTES = 32 << 20  # affinity rows held at once: 2,000 x 2,000 is one chunk


def _affinity_chunks(U: np.ndarray, V: np.ndarray, rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, a fresh array of rows of ``U @ V.T / sqrt(rank)``),
    ``rows`` at a time, in row order."""
    scale = np.sqrt(U.shape[1])
    for start in range(0, U.shape[0], rows):
        chunk = U[start : start + rows] @ V.T
        chunk /= scale
        yield start, chunk


def _item_moments(U: np.ndarray, V: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-item mean and population std of the affinity rows, as
    ``S.mean(axis=0)`` and ``S.std(axis=0)`` compute them: a sum over rows,
    then the sum of squared deviations from that mean."""
    M = U.shape[0]
    mean = sum(chunk.sum(axis=0) for _, chunk in _affinity_chunks(U, V, rows)) / M
    squares = 0.0
    for _, chunk in _affinity_chunks(U, V, rows):
        chunk -= mean
        chunk *= chunk
        squares += chunk.sum(axis=0)
    return mean, np.sqrt(squares / M)


def planted_interactions(
    M: int = 200,
    N: int = 300,
    rank: int = 8,
    per_user: int = 20,
    noise: float = 0.5,
    seed: int = 0,
) -> list[Triple]:
    """Raw (user id, item id, timestamp) records, one block per user."""
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(M, rank))
    V = rng.normal(size=(N, rank))
    rows = max(1, CHUNK_BYTES // (8 * max(N, 1)))
    mean, std = _item_moments(U, V, rows)
    std += 1e-12
    top = min(per_user, N)  # records per user
    chosen = np.empty((M, top), dtype=np.int64)
    stamps = np.empty((M, top), dtype=np.int64)
    for start, chunk in _affinity_chunks(U, V, rows):
        chunk -= mean
        chunk /= std
        for u, row in enumerate(chunk, start):
            # the top items by descending noisy affinity: a partition, then a sort of those
            neg = -(row + rng.gumbel(0.0, noise, size=N))
            best = np.argpartition(neg, top)[:top] if top < N else np.arange(N)
            chosen[u] = best[np.argsort(neg[best])]
            stamps[u] = rng.integers(100_000, 200_000, size=per_user)[:top]
    item_ids = {i: f"i{i:03d}" for i in np.unique(chosen).tolist()}
    user_ids = chain.from_iterable(repeat(f"u{u:03d}", top) for u in range(M))
    return list(zip(user_ids, map(item_ids.__getitem__, chosen.ravel().tolist()), stamps.ravel().tolist()))


def write_interactions(triples: list[Triple], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{user}\t{item}\t{ts}\n" for user, item, ts in triples))
