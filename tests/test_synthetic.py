import tracemalloc

import numpy as np
import pytest

from convncf import synthetic

from _oracles import planted_interactions_loops
from test_acceptance import FIXTURE

# Each fits one chunk, so each must reproduce the dense generator's bytes.
ONE_CHUNK_LOGS = {
    "desk bench": dict(M=200, N=300, per_user=20, seed=1),
    "flagship bench": dict(M=50, N=2000, per_user=4, seed=1),
    "acceptance fixture": FIXTURE,
    "criterion 5 log": dict(M=30, N=40, rank=4, per_user=6, noise=0.1, seed=5),
    "per_user == N": dict(M=12, N=15, rank=3, per_user=15, seed=4),
}


@pytest.mark.parametrize("kw", ONE_CHUNK_LOGS.values(), ids=ONE_CHUNK_LOGS.keys())
def test_one_chunk_matches_dense_oracle(kw):
    assert 8 * kw["N"] * kw["M"] <= synthetic.CHUNK_BYTES
    assert synthetic.planted_interactions(**kw) == planted_interactions_loops(**kw)


def test_several_chunks_are_deterministic_and_lean(monkeypatch):
    M, N, rows = 120, 150, 16
    monkeypatch.setattr(synthetic, "CHUNK_BYTES", 8 * N * rows)  # 8 chunks, the last short
    kw = dict(M=M, N=N, rank=4, per_user=2, seed=11)
    first = synthetic.planted_interactions(**kw)  # also loads what numpy imports lazily
    tracemalloc.start()
    try:
        again = synthetic.planted_interactions(**kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert len(first) == M * 2
    assert peak < 8 * M * N, f"peak {peak} B holds a whole {M}x{N} float64 matrix"

    # the moments summed over chunks are the dense ones up to rounding
    rng = np.random.default_rng(0)
    U, V = rng.normal(size=(M, 4)), rng.normal(size=(N, 4))
    S = U @ V.T / 2.0
    mean, std = synthetic._item_moments(U, V, rows)
    np.testing.assert_allclose(mean, S.mean(axis=0), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(std, S.std(axis=0), rtol=1e-12)
