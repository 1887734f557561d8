import numpy as np
import pytest

from convncf.data import HISTORY_PAD, derive_seed, load_interactions, split_leave_latest_out
from convncf.embeddings import EmbeddingTables, Variant, init_tables
from convncf.evaluation import (
    DEFAULT_KS,
    EvalResult,
    EvaluationError,
    evaluate,
    hr_at_k,
    itempop_scores,
    make_itempop,
    ndcg_at_k,
    rolling_last10,
    write_per_user_ranks,
)
from convncf import evaluation, model
from convncf.model import HeadKind, IdentityHead, MergeKind, ModelSpec, new_head, predict_batch
from convncf.training import TrainConfig, evaluate_state, train

from _oracles import rank_by_sort, rank_of_target

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


def ragged_fixture(tmp_path, M=24, N=14):
    """Users with 3 to 7 items of a small catalogue, so their negatives
    number 7 to 11 and a few users' candidate rows fill one small block."""
    lines = []
    for u in range(M):
        for k in range(3 + u % 5):
            lines.append(f"u{u:02d}\ti{(2 * u + 5 * k) % N:02d}\t{k}\n")
    path = tmp_path / "ragged.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    return split_leave_latest_out(load_interactions(str(path)), derive_seed(32, "split"))


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

    @pytest.mark.parametrize("which", ["val", "test"])
    @pytest.mark.parametrize("passing", [0, 3])
    @pytest.mark.parametrize("check", ["user", "history"])
    def test_group_check_names_the_first_failing_user(self, tmp_path, check, passing, which):
        """One check covers a group's user indices and history terms and, as
        a check per user would, names the first user that fails it: the
        group's first user, or a later one when the first three pass."""
        splits = splits_fixture(tmp_path)
        users = sorted(splits.test)
        ds = splits.train
        t = init_tables(ds.M, ds.N, 4, Variant.SVDPP, 5)
        if check == "user":
            t = EmbeddingTables(P=t.P[: users[passing]], Q=t.Q, Qp=t.Qp)
            named, message = users[passing], rf"user index {users[passing]} out of range \[0, {users[passing]}\)"
        else:
            top = [max(splits.history_items(u, include_validation=which == "test")) for u in users]
            limit = max(top[:passing]) + 1 if passing else top[0]
            t = EmbeddingTables(P=t.P, Q=t.Q[:limit], Qp=t.Qp[:limit])
            named, message = next(u for u, item in zip(users, top) if item >= limit), "history item index out of range"
            assert users.index(named) >= passing
        spec = ModelSpec(variant=Variant.SVDPP, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        with pytest.raises(EvaluationError, match=rf"user {ds.user_ids[named]!r} \(index {named}\): {message}") as info:
            evaluate(spec, t, splits, which=which)
        assert isinstance(info.value.__cause__, IndexError)

    @pytest.mark.parametrize("shared", [False, True])
    def test_pooled_block_failure_names_the_user(self, tmp_path, monkeypatch, shared):
        """A block that fails on the pool or the calling thread, the last of
        several flagship-shaped blocks, fails the caller of either split,
        with or without a shared store, and the pool keeps scoring
        afterwards."""
        monkeypatch.setattr(model, "SCORE_WORKERS", 2)  # pooled even on one CPU
        splits = splits_fixture(tmp_path, M=60, N=200)
        ds = splits.train
        t = init_tables(ds.M, ds.N, 64, Variant.MF, 5, scale=0.1)
        head = new_head(HeadKind.CNN, MergeKind.OUTER, 64, 32, 1, derive_seed(5, "init_head"))
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=head, K=64)
        first = sorted(splits.test)[0]
        good = np.concatenate([[splits.test[first].item], splits.eval_negatives[first]])
        assert len(good) > 3 * model.block_rows(spec)
        poison = ds.items_of(first)[0]  # a train item, so never one of the user's candidates
        score_block = model._score_block

        def failing(spec, FU, Q, items):
            if poison in items:
                raise IndexError(f"item {poison} cannot be scored")
            return score_block(spec, FU, Q, items)

        monkeypatch.setattr(model, "_score_block", failing)
        splits.eval_negatives[first] = np.append(splits.eval_negatives[first], poison)
        with pytest.raises(IndexError, match="cannot be scored"):
            predict_batch(spec, t, first, np.append(good, poison))
        store = {} if shared else None
        for which in ("val", "test"):
            with pytest.raises(EvaluationError, match=ds.user_ids[first]) as info:
                evaluate(spec, t, splits, which=which, store=store)
            assert isinstance(info.value.__cause__, IndexError)
        assert predict_batch(spec, t, first, good).shape == good.shape


def per_split_ranks(spec, tables, splits, which):
    """Each user's target scored with the negatives alone, with the split's
    history: one pass per split and user, no store."""
    ranks = {}
    for u in sorted(splits.test):
        held = (splits.test if which == "test" else splits.validation)[u].item
        history = splits.history_items(u, include_validation=(which == "test"))
        scores = predict_batch(spec, tables, u, np.append(held, splits.eval_negatives[u]), history)
        ranks[u] = rank_of_target(scores, 0)
    return ranks


class TestSharedPass:
    HEADS = [
        (MergeKind.OUTER, HeadKind.CNN),
        (MergeKind.ELEMENTWISE, HeadKind.LINEAR),
        (MergeKind.INNER, HeadKind.IDENTITY),
        (MergeKind.OUTER, HeadKind.MLP),
        (MergeKind.CONCAT, HeadKind.MLP),
    ]

    @pytest.mark.parametrize("mk,hk", HEADS)
    @pytest.mark.parametrize("variant", [Variant.MF, Variant.FISM, Variant.SVDPP])
    def test_paired_calls_match_one_pass_per_split(self, tmp_path, variant, mk, hk):
        """Val and test calls sharing one store give the hr, ndcg and ranks
        of calls without one, and each rank is that of the target scored
        with the negatives alone, MLP heads included."""
        splits = splits_fixture(tmp_path, M=30, N=200, per_user=8)
        t = init_tables(splits.train.M, splits.train.N, 4, variant, derive_seed(8, "init"), scale=1.0)
        head = new_head(hk, mk, 4, 3, 2, derive_seed(8, "init_head"))
        spec = ModelSpec(variant=variant, merge=mk, head=head, K=4)
        store = {}
        for which in ("val", "test"):
            shared = evaluate(spec, t, splits, which=which, store=store)
            alone = evaluate(spec, t, splits, which=which)
            assert shared.ranks == alone.ranks == per_split_ranks(spec, t, splits, which)
            assert shared.hr == alone.hr and shared.ndcg == alone.ndcg
        assert len(store) == 2 * len(splits.test)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mk,hk", HEADS)
    @pytest.mark.parametrize("variant", [Variant.MF, Variant.FISM, Variant.SVDPP])
    def test_blocks_straddle_users(self, tmp_path, monkeypatch, variant, mk, hk, workers):
        """With a 7-row block cap and ragged negatives, blocks hold the rows
        of two or more users, inline or on the pool. Every rank equals the
        per-user oracle's; no block exceeds the cap; and, except with an MLP
        head, every block's scores equal its rows scored one by one, bit for
        bit."""
        splits = ragged_fixture(tmp_path)
        assert len({neg.shape[0] for neg in splits.eval_negatives.values()}) > 2
        t = init_tables(splits.train.M, splits.train.N, 4, variant, derive_seed(9, "init"), scale=1.0)
        head = new_head(hk, mk, 4, 3, 2, derive_seed(9, "init_head"))
        spec = ModelSpec(variant=variant, merge=mk, head=head, K=4)
        want = {which: per_split_ranks(spec, t, splits, which) for which in ("val", "test")}
        blocks = []
        score_block = model._score_block

        def recording(spec, FU, Q, items):
            scores = score_block(spec, FU, Q, items)
            blocks.append((FU, items, scores))
            return scores

        monkeypatch.setattr(model, "SCORE_WORKERS", workers)
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", 7)
        monkeypatch.setattr(model, "_score_block", recording)
        record = evaluate_state(spec, t, splits, epoch=1)
        assert record.val.ranks == want["val"] and record.test.ranks == want["test"]
        assert max(len(items) for _, items, _ in blocks) == 7
        assert sum((FU != FU[0]).any() for FU, _, _ in blocks) > len(blocks) // 3
        if hk is HeadKind.MLP:
            return
        for FU, items, scores in blocks:
            alone = [score_block(spec, FU[r : r + 1], t.Q, items[r : r + 1]) for r in range(len(items))]
            assert scores.tobytes() == np.concatenate(alone).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flagship_svdpp_chunks_straddle_users(self, tmp_path, monkeypatch, workers):
        """At K=64 C=32 with 3-row tower chunks, an SVD++ group's 16-row
        blocks, and chunks inside them, hold rows of users with different
        user rows; inline or on the pool, every score of the group equals
        predict_batch of that user's candidates with the split's history,
        bit for bit."""
        splits = ragged_fixture(tmp_path)
        t = init_tables(splits.train.M, splits.train.N, 64, Variant.SVDPP, derive_seed(9, "init"), scale=0.3)
        head = new_head(HeadKind.CNN, MergeKind.OUTER, 64, 32, 1, derive_seed(9, "init_head"))
        spec = ModelSpec(variant=Variant.SVDPP, merge=MergeKind.OUTER, head=head, K=64)
        monkeypatch.setattr(model, "TOWER_CHUNK_BYTES", 3 * 8 * 32 * 32 * 32)
        monkeypatch.setattr(model, "SCORE_WORKERS", workers)
        assert model.chunk_rows(spec) == 3 and model.block_rows(spec) == 16
        groups = []
        rank_group, score_rows = evaluation._rank_group, evaluation.score_rows

        def recording_rank_group(spec, tables, splits, group, served):
            groups.append([group, served])
            return rank_group(spec, tables, splits, group, served)

        def recording_score_rows(*args):
            blocks = list(score_rows(*args))
            groups[-1].append(np.concatenate(blocks))
            return iter(blocks)

        monkeypatch.setattr(evaluation, "_rank_group", recording_rank_group)
        monkeypatch.setattr(evaluation, "score_rows", recording_score_rows)
        evaluate_state(spec, t, splits, epoch=1)
        assert [served for _, served, _ in groups] == [("val",)] * (len(groups) // 2) + [("test",)] * (len(groups) // 2)
        for group, (which,), scores in groups:
            held = splits.validation if which == "val" else splits.test
            want = []
            for u in group:
                history = splits.history_items(u, include_validation=which == "test")
                want.append(predict_batch(spec, t, u, np.append(held[u].item, splits.eval_negatives[u]), history))
            assert max(w.shape[0] for w in want) < 16 < scores.shape[0]  # blocks span users
            assert scores.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_block_names_its_first_user(self, tmp_path, monkeypatch, workers):
        """A block holding several users' rows that fails, inline or on the
        pool, raises EvaluationError naming the first user it holds, with
        the block's error as the cause."""
        splits = ragged_fixture(tmp_path)
        ds = splits.train
        t = init_tables(ds.M, ds.N, 4, Variant.MF, derive_seed(9, "init"), scale=1.0)
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        failed = []  # the users of each failing block, in row order
        score_block = model._score_block

        def failing(spec, FU, Q, items):
            users = [int(np.flatnonzero((t.P == row).all(axis=1))[0]) for row in FU]  # MF: FU rows are P rows
            if users[0] < 5:
                return score_block(spec, FU, Q, items)
            failed.append(users)
            raise ValueError("block cannot be scored")

        monkeypatch.setattr(model, "SCORE_WORKERS", workers)
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", 16)
        monkeypatch.setattr(model, "_score_block", failing)
        with pytest.raises(EvaluationError) as info:
            evaluate(spec, t, splits, which="val")
        users = min(failed)  # blocks run in user order, so the first failing block holds u first
        u = users[0]
        assert users[-1] > u  # the block spans several users
        widest = 2 + max(neg.shape[0] for neg in splits.eval_negatives.values())
        assert 5 <= u < evaluation.GROUP_BLOCKS * 16 // widest  # inside the first group, not its first user
        assert f"user {ds.user_ids[u]!r} (index {u})" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "block cannot be scored"

    def test_out_of_range_candidate_names_its_user(self, tmp_path):
        """Tables one item short of the split: the first user whose
        candidates hold the missing item is named, before any scoring."""
        splits = ragged_fixture(tmp_path)
        ds = splits.train
        t = init_tables(ds.M, ds.N - 1, 4, Variant.MF, derive_seed(9, "init"), scale=1.0)
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        missing = ds.N - 1
        u = next(
            u for u in sorted(splits.test)
            if missing in (splits.validation[u].item, splits.test[u].item)
            or missing in splits.eval_negatives[u]
        )
        with pytest.raises(EvaluationError, match=rf"user {ds.user_ids[u]!r} \(index {u}\): candidate item index {missing}") as info:
            evaluate(spec, t, splits)
        assert isinstance(info.value.__cause__, IndexError)

    def test_itempop(self, tmp_path):
        splits = splits_fixture(tmp_path, M=30, N=200, per_user=8)
        spec, t = make_itempop(splits.train)
        store = {}
        for which in ("val", "test"):
            shared = evaluate(spec, t, splits, which=which, store=store)
            alone = evaluate(spec, t, splits, which=which)
            assert shared.ranks == alone.ranks == per_split_ranks(spec, t, splits, which)
            assert shared.hr == alone.hr and shared.ndcg == alone.ndcg

    @pytest.mark.parametrize("variant", [Variant.MF, Variant.FISM, Variant.SVDPP, "itempop"])
    def test_state_record_matches_separate_calls(self, tmp_path, variant):
        """evaluate_state's record carries the hr, ndcg and ranks of one
        evaluate call per split with no store, byte for byte."""
        splits = splits_fixture(tmp_path, M=30, N=200, per_user=8)
        if variant == "itempop":
            spec, t = make_itempop(splits.train)
        else:
            t = init_tables(splits.train.M, splits.train.N, 4, variant, derive_seed(8, "init"), scale=1.0)
            head = new_head(HeadKind.CNN, MergeKind.OUTER, 4, 3, 1, derive_seed(8, "init_head"))
            spec = ModelSpec(variant=variant, merge=MergeKind.OUTER, head=head, K=4)
        record = evaluate_state(spec, t, splits, epoch=3, mean_loss=0.5)
        assert (record.epoch, record.mean_loss) == (3, 0.5)
        for which, res in (("val", record.val), ("test", record.test)):
            alone = evaluate(spec, t, splits, which=which)
            assert res.users_evaluated == alone.users_evaluated == len(splits.test)
            assert res.ranks == alone.ranks == per_split_ranks(spec, t, splits, which)
            for got, want in ((res.hr, alone.hr), (res.ndcg, alone.ndcg)):
                assert list(got) == list(want) == list(DEFAULT_KS)
                assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("variant", [Variant.MF, Variant.FISM, Variant.SVDPP])
    def test_scoring_calls_per_user(self, tmp_path, monkeypatch, variant):
        """Over two trained epochs a history-free model builds each user's
        scoring row once per epoch and scores each candidate row once; FISM
        and SVD++ do both twice. Their rows sum the user's train terms,
        ascending, and only the test call's terms hold the validation item,
        in its ascending place."""
        splits = splits_fixture(tmp_path, M=12, N=40)
        calls, rows = [], []

        def counting(spec, tables, users, terms=None, targets=None):
            for b, u in enumerate(users.tolist()):
                calls.append((u, [] if terms is None else terms[b][terms[b] != HISTORY_PAD].tolist()))
            return build_rows(spec, tables, users, terms, targets)

        def block(spec, FU, Q, items):
            rows.append(len(items))
            return score_block(spec, FU, Q, items)

        build_rows, score_block = evaluation.user_rows, model._score_block
        monkeypatch.setattr(evaluation, "user_rows", counting)
        monkeypatch.setattr(model, "_score_block", block)
        t = init_tables(splits.train.M, splits.train.N, 4, variant, derive_seed(2, "init"), scale=0.1)
        spec = ModelSpec(variant=variant, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        train(spec, t, splits, TrainConfig(epochs=2, seed=4))
        users = sorted(splits.test)
        negatives = sum(splits.eval_negatives[u].shape[0] for u in users)
        if variant is Variant.MF:
            assert [u for u, _ in calls] == users * 2
            assert sum(rows) == 2 * (negatives + 2 * len(users))
            return
        assert [u for u, _ in calls] == users * 4
        assert sum(rows) == 4 * (negatives + len(users))
        for epoch in range(2):
            val_calls = calls[2 * epoch * len(users) :][: len(users)]
            test_calls = calls[(2 * epoch + 1) * len(users) :][: len(users)]
            for (u, val_history), (_, test_history) in zip(val_calls, test_calls):
                assert val_history == sorted(splits.train.items_of(u))
                assert test_history == sorted(val_history + [splits.validation[u].item])


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
