import numpy as np
import pytest

from convncf.data import derive_seed, load_interactions, split_leave_latest_out
from convncf.embeddings import EmbeddingTables, Variant, init_tables
from convncf.evaluation import (
    EvalResult,
    EvaluationError,
    evaluate,
    hr_at_k,
    itempop_scores,
    make_itempop,
    ndcg_at_k,
    rank_of_target,
    rolling_last10,
    write_per_user_ranks,
)
from convncf import model
from convncf.model import HeadKind, IdentityHead, MergeKind, ModelSpec, new_head, predict_batch

from _oracles import rank_by_sort

# frozen: 1/log2(3), the gain of landing at rank 2
NDCG_RANK2 = 0.6309297535714574


def splits_fixture(tmp_path, M=8, N=20, per_user=6):
    lines = []
    for u in range(M):
        for k in range(per_user):
            lines.append(f"u{u}\ti{(u + 3 * k) % N:02d}\t{k}\n")
    path = tmp_path / "evalfix.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    return split_leave_latest_out(load_interactions(str(path)), derive_seed(31, "split"))


class TestRank:
    def test_examples(self):
        assert rank_of_target(np.array([0.5, 0.9, 0.1]), 0) == 2
        assert rank_of_target(np.array([0.5, 0.9, 0.1]), 1) == 1
        assert rank_of_target(np.array([0.5, 0.9, 0.1]), 2) == 3

    def test_ties_resolve_optimistically(self):
        assert rank_of_target(np.array([1.0, 1.0, 1.0]), 1) == 1
        assert rank_of_target(np.array([2.0, 1.0, 1.0, 0.5]), 2) == 2

    def test_matches_stable_sort_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)  # force ties
            t = int(rng.integers(n))
            assert rank_of_target(scores, t) == rank_by_sort(scores, t)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=40)
        for transform in (lambda s: 3 * s + 2, lambda s: s**3, np.tanh):
            for t in (0, 17, 39):
                assert rank_of_target(transform(scores), t) == rank_of_target(scores, t)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            rank_of_target(np.array([1.0]), 1)


class TestMetricUnits:
    def test_hr_boundary(self):
        assert hr_at_k(10, 10) == 1
        assert hr_at_k(11, 10) == 0
        assert hr_at_k(1, 1) == 1

    def test_ndcg_values(self):
        assert ndcg_at_k(1, 10) == 1.0
        assert ndcg_at_k(2, 10) == pytest.approx(NDCG_RANK2, abs=1e-12)
        assert ndcg_at_k(11, 10) == 0.0
        assert ndcg_at_k(10, 10) == pytest.approx(1.0 / np.log2(11.0), abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hr_at_k(0, 10)
        with pytest.raises(ValueError):
            ndcg_at_k(1, 0)

    def test_monotone_and_bounded(self):
        """On 1000 random fixtures: ndcg <= hr, both in [0,1], and both
        non-increasing as rank grows at fixed k."""
        rng = np.random.default_rng(99)
        for _ in range(1000):
            rank = int(rng.integers(1, 40))
            k = int(rng.integers(1, 25))
            hr = hr_at_k(rank, k)
            nd = ndcg_at_k(rank, k)
            assert 0.0 <= nd <= hr <= 1.0
            assert ndcg_at_k(rank + 1, k) <= nd
            assert hr_at_k(rank + 1, k) <= hr


class TestEvaluate:
    def test_two_user_hand_example(self, tmp_path):
        """Planted ranks 1 and 11: hr@10 = 0.5, ndcg@10 = 0.5."""
        splits = splits_fixture(tmp_path)
        users = sorted(splits.test)[:2]
        # item table scores: give user A's target the top score, user B's
        # target a score below ten negatives
        t = init_tables(splits.train.M, splits.train.N, 1, Variant.MF, 0, scale=0.0)
        t.P[:, 0] = 1.0
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=1)
        a, b = users
        shrunk = type(splits)(
            train=splits.train,
            validation={u: splits.validation[u] for u in (a, b)},
            test={u: splits.test[u] for u in (a, b)},
            eval_negatives={u: splits.eval_negatives[u] for u in (a, b)},
            skipped_users=0,
        )
        t.Q[:, 0] = 0.0
        t.Q[splits.test[a].item, 0] = 5.0  # rank 1 for user a
        for j in shrunk.eval_negatives[b][:10]:
            t.Q[j, 0] = 9.0  # ten items above user b's target: rank 11
        res = evaluate(spec, t, shrunk, which="test")
        assert res.users_evaluated == 2
        assert res.ranks[a] == 1 and res.ranks[b] == 11
        assert res.hr[10] == 0.5
        assert res.ndcg[10] == 0.5
        assert res.hr[20] == 1.0
        assert res.ndcg[20] == pytest.approx((1.0 + 1.0 / np.log2(12.0)) / 2)

    def test_deterministic(self, tmp_path):
        splits = splits_fixture(tmp_path)
        t = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 5, scale=1.0)
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        a = evaluate(spec, t, splits)
        b = evaluate(spec, t, splits)
        assert a.hr == b.hr and a.ndcg == b.ndcg and a.ranks == b.ranks

    def test_val_and_test_use_different_histories(self, tmp_path):
        """A SVD++ model scores the two splits differently because the test
        pass folds the validation item into the history sum."""
        splits = splits_fixture(tmp_path)
        t = init_tables(splits.train.M, splits.train.N, 4, Variant.SVDPP, 2, scale=1.0)
        spec = ModelSpec(variant=Variant.SVDPP, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        val = evaluate(spec, t, splits, which="val")
        test = evaluate(spec, t, splits, which="test")
        assert val.ranks != test.ranks  # target items differ per user anyway
        assert val.users_evaluated == test.users_evaluated

    def test_unknown_split_name(self, tmp_path):
        splits = splits_fixture(tmp_path)
        t = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 5)
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        with pytest.raises(ValueError):
            evaluate(spec, t, splits, which="holdout")

    def test_failure_names_the_user(self, tmp_path):
        splits = splits_fixture(tmp_path)
        # a history-based spec over tables with no history table cannot score
        t = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 5)
        spec = ModelSpec(variant=Variant.SVDPP, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        first = sorted(splits.test)[0]
        with pytest.raises(EvaluationError, match=splits.train.user_ids[first]):
            evaluate(spec, t, splits)

    def test_pooled_block_failure_names_the_user(self, tmp_path, monkeypatch):
        """An out-of-range candidate in the last of several flagship-shaped
        blocks fails inside a pool worker; the error reaches the caller and
        the pool keeps scoring afterwards."""
        monkeypatch.setattr(model, "SCORE_WORKERS", 2)  # pooled even on one CPU
        splits = splits_fixture(tmp_path, M=60, N=200)
        ds = splits.train
        t = init_tables(ds.M, ds.N, 64, Variant.MF, 5, scale=0.1)
        head = new_head(HeadKind.CNN, MergeKind.OUTER, 64, 32, 1, derive_seed(5, "init_head"))
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=head, K=64)
        first = sorted(splits.test)[0]
        good = np.concatenate([[splits.test[first].item], splits.eval_negatives[first]])
        assert len(good) > 3 * model._block_rows(spec)
        splits.eval_negatives[first] = np.append(splits.eval_negatives[first], ds.N)
        with pytest.raises(IndexError):
            predict_batch(spec, t, first, np.append(good, ds.N))
        with pytest.raises(EvaluationError, match=ds.user_ids[first]) as info:
            evaluate(spec, t, splits)
        assert isinstance(info.value.__cause__, IndexError)
        assert predict_batch(spec, t, first, good).shape == good.shape


class TestItemPop:
    def test_counting_oracle(self, tmp_path):
        splits = splits_fixture(tmp_path)
        counts = itempop_scores(splits.train)
        by_hand = np.zeros(splits.train.N)
        for u in range(splits.train.M):
            for i in splits.train.items_of(u):
                by_hand[i] += 1
        np.testing.assert_array_equal(counts, by_hand)

    def test_model_scores_equal_counts(self, tmp_path):
        splits = splits_fixture(tmp_path)
        spec, tables = make_itempop(splits.train)
        from convncf.model import predict_batch

        items = np.arange(splits.train.N)
        np.testing.assert_array_equal(
            predict_batch(spec, tables, 0, items), itempop_scores(splits.train)
        )

    def test_hand_traced_fixture(self, tmp_path):
        """Three items with counts 3 > 2 > 1; a target of middling popularity
        ranks below the more popular negative and above the less popular."""
        text = (
            "a\tx\t1\nb\tx\t2\nc\tx\t3\n"
            "a\ty\t4\nb\ty\t5\n"
            "c\tz\t6\n"
        )
        path = tmp_path / "pop.tsv"
        path.write_text(text, encoding="utf-8")
        ds = load_interactions(str(path))
        spec, tables = make_itempop(ds)
        x, y, z = (ds.item_index[n] for n in ("x", "y", "z"))
        scores = tables.Q[[x, y, z], 0]
        np.testing.assert_array_equal(scores, [3.0, 2.0, 1.0])
        assert rank_of_target(scores, 1) == 2


class TestRollingLast10:
    def _result(self, v):
        return EvalResult(hr={10: v}, ndcg={10: v / 2}, users_evaluated=7)

    def test_constant_history(self):
        res = rolling_last10([self._result(0.4)] * 15)
        assert res.hr[10] == pytest.approx(0.4)
        assert res.ndcg[10] == pytest.approx(0.2)

    def test_single_entry(self):
        res = rolling_last10([self._result(0.8)])
        assert res.hr[10] == pytest.approx(0.8)

    def test_window_covers_last_ten_only(self):
        # 12 epochs ramping 1..12: the mean of 3..12 is 7.5
        history = [self._result(float(e)) for e in range(1, 13)]
        assert rolling_last10(history).hr[10] == pytest.approx(7.5)

    def test_short_history_uses_all(self):
        history = [self._result(float(e)) for e in (1, 2, 3)]
        assert rolling_last10(history).hr[10] == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rolling_last10([])


class TestPerUserRanks:
    def test_file_layout(self, tmp_path):
        splits = splits_fixture(tmp_path)
        t = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 5, scale=1.0)
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        res = evaluate(spec, t, splits)
        path = tmp_path / "ranks.tsv"
        write_per_user_ranks(res, splits.train, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == res.users_evaluated
        for line in lines:
            name, rank = line.split("\t")
            assert res.ranks[splits.train.user_index[name]] == int(rank)
