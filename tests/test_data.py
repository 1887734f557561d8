import re

import numpy as np
import pytest

from convncf.data import (
    EVAL_NEGATIVES,
    Dataset,
    ParseError,
    ProtocolError,
    SamplingError,
    derive_seed,
    filter_dataset,
    load_interactions,
    minibatches,
    sample_negative,
    satisfies_thresholds,
    split_leave_latest_out,
    write_manifest,
)

from _oracles import sample_negative_set


def write(tmp_path, text, name="data.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SIX_LINES = (
    "# comment line\n"
    "alice\tbook\t30\n"
    "alice\tfilm\t10\n"
    "bob\tbook\t5\n"
    "bob\tgame\t7\n"
    "alice\tgame\t20\n"
    "bob\tfilm\t9\n"
)


class TestLoadInteractions:
    def test_fixture_counts_and_order(self, tmp_path):
        ds = load_interactions(write(tmp_path, SIX_LINES))
        assert (ds.M, ds.N) == (2, 3)
        assert ds.n_interactions == 6
        # dense ids follow first appearance: alice=0, bob=1; book=0, film=1, game=2
        assert ds.user_ids == ["alice", "bob"]
        assert ds.item_ids == ["book", "film", "game"]
        # per-user rows sorted ascending by timestamp
        assert stamps_of(ds, 0) == [10, 20, 30]
        assert stamps_of(ds, 1) == [5, 7, 9]

    def test_duplicates_collapse_to_earliest(self, tmp_path):
        ds = load_interactions(write(tmp_path, "a\tx\t10\na\tx\t5\na\tx\t8\n"))
        assert ds.n_interactions == 1
        assert stamps_of(ds, 0)[0] == 5

    def test_timestamp_tie_breaks_by_raw_item_id(self, tmp_path):
        ds = load_interactions(write(tmp_path, "a\tzz\t7\na\tmm\t7\na\taa\t7\n"))
        names = [ds.item_ids[i] for i in ds.items_of(0)]
        assert names == ["aa", "mm", "zz"]

    def test_empty_file(self, tmp_path):
        ds = load_interactions(write(tmp_path, ""))
        assert (ds.M, ds.N) == (0, 0)

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(write(tmp_path, "a\tx\t1\na\tx\n"))

    def test_bad_timestamp_reports_line_number(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_interactions(write(tmp_path, "a\tx\tsoon\n"))

    @pytest.mark.parametrize("ts", ["1_000", " 7", "7 ", "١٢", "", "+", "-", "+-5", "0x10", "1e3"])
    def test_timestamp_must_be_ascii_digits(self, tmp_path, ts):
        """int() would read '1_000', ' 7' and Arabic-Indic '١٢' as 1000, 7
        and 12, which the manifest would then write back as other text."""
        with pytest.raises(ParseError, match=re.escape(f"line 2: timestamp {ts!r} is not a base-10 integer")):
            load_interactions(write(tmp_path, f"a\tx\t1\nb\tx\t{ts}\n"))

    def test_signed_timestamps(self, tmp_path):
        ds = load_interactions(write(tmp_path, "a\tx\t+7\na\ty\t-3\na\tz\t007\n"))
        assert stamps_of(ds, 0) == [-3, 7, 7]

    def test_empty_id_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_interactions(write(tmp_path, "\tx\t1\n"))

    def test_int64_timestamp_range(self, tmp_path):
        low, high = -(2**63), 2**63 - 1
        ds = load_interactions(write(tmp_path, f"a\tx\t{high}\na\ty\t{low}\n"))
        assert stamps_of(ds, 0) == [low, high]
        for ts in (high + 1, low - 1, 10**30):
            text = f"a\tx\t1\nb\tx\t{ts}\n"
            with pytest.raises(ParseError, match=f"^line 2: timestamp '{ts}' is outside the int64 range$"):
                load_interactions(write(tmp_path, text))


class TestItemCounts:
    def test_counts_every_item_once_per_user(self, tmp_path):
        ds = load_interactions(write(tmp_path, SIX_LINES))
        assert ds.item_ids == ["book", "film", "game"]
        np.testing.assert_array_equal(ds.item_counts(), [2, 2, 2])
        ds = load_interactions(write(tmp_path, "a\tx\t1\nb\tx\t2\na\ty\t3\n"))
        np.testing.assert_array_equal(ds.item_counts(), [2, 1])

    def test_empty_dataset_counts_nothing(self, tmp_path):
        ds = load_interactions(write(tmp_path, "# nothing\n"))
        assert ds.item_counts().shape == (0,)


class TestFilter:
    def test_thresholds_one_one_is_identity(self, tmp_path):
        ds = load_interactions(write(tmp_path, SIX_LINES))
        out = filter_dataset(ds, 1, 1)
        assert out.stable
        assert out.dataset.user_ids == ds.user_ids
        assert out.dataset.item_ids == ds.item_ids
        assert out.dataset.n_interactions == ds.n_interactions

    def test_sparse_item_removed(self, tmp_path):
        # "game" has 2 interactions, the rest have 2; threshold 3 kills all
        text = "a\tx\t1\nb\tx\t2\nc\tx\t3\na\ty\t4\nb\ty\t5\n"
        ds = load_interactions(write(tmp_path, text))
        out = filter_dataset(ds, 3, 1)
        assert out.dataset.item_ids == ["x"]
        assert out.dataset.n_interactions == 3

    def test_cascade_removes_user_in_same_call(self, tmp_path):
        # removing item y (1 interaction) drops user c below 2 interactions
        text = "a\tx\t1\nb\tx\t2\nc\tx\t3\na\tz\t4\nb\tz\t5\nc\ty\t6\n"
        ds = load_interactions(write(tmp_path, text))
        out = filter_dataset(ds, 2, 2)
        assert "c" not in out.dataset.user_ids
        assert out.stable

    def test_unstable_flag_when_user_removal_starves_item(self, tmp_path):
        # u3 is the only holder of item q beyond threshold; dropping u3's rows
        # (too few after item filtering) pulls q back under min_item
        text = (
            "u1\ta\t1\nu2\ta\t2\nu1\tb\t3\nu2\tb\t4\n"
            "u3\ta\t5\nu3\tq\t6\nu4\tq\t7\nu4\tc\t8\n"
        )
        ds = load_interactions(write(tmp_path, text))
        out = filter_dataset(ds, 2, 2)
        if not out.stable:
            assert not satisfies_thresholds(out.dataset, 2, 2)
        again = filter_dataset(out.dataset, 2, 2)
        # re-application converges on this fixture
        assert again.stable or not again.dataset.M

    def test_rejects_zero_threshold(self, tmp_path):
        ds = load_interactions(write(tmp_path, SIX_LINES))
        with pytest.raises(ValueError):
            filter_dataset(ds, 0, 1)

    def test_dense_after_filtering(self, tmp_path):
        text = "a\tx\t1\nb\tx\t2\na\ty\t3\nb\tz\t4\na\tz\t5\n"
        ds = load_interactions(write(tmp_path, text))
        out = filter_dataset(ds, 2, 1).dataset
        items = {i for u in range(out.M) for i in out.items_of(u)}
        assert items == set(range(out.N))


def stamps_of(ds, u):
    return ds.stamps[ds.indptr[u] : ds.indptr[u + 1]].tolist()


def three_by_five(tmp_path):
    # 3 users, 5 interactions each, over an 8-item catalog so negatives exist
    catalog = ["i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8"]
    lines = []
    for shift, u in enumerate(("p", "q", "r")):
        for k in range(5):
            lines.append(f"{u}\t{catalog[shift + k]}\t{k + 1}\n")
    return load_interactions(write(tmp_path, "".join(lines), name="split.tsv"))


class TestSplit:
    def test_latest_is_test(self, tmp_path):
        ds = three_by_five(tmp_path)
        splits = split_leave_latest_out(ds, seed=0)
        for u in range(ds.M):
            assert splits.test[u].timestamp == 5

    def test_partition_and_disjointness(self, tmp_path):
        ds = three_by_five(tmp_path)
        splits = split_leave_latest_out(ds, seed=1)
        for u in range(ds.M):
            train_items = set(splits.train.items_of(u))
            val, test = splits.validation[u].item, splits.test[u].item
            assert val not in train_items and test not in train_items and val != test
            assert train_items | {val, test} == set(ds.items_of(u))

    def test_same_seed_identical(self, tmp_path):
        ds = three_by_five(tmp_path)
        a = split_leave_latest_out(ds, seed=7)
        b = split_leave_latest_out(ds, seed=7)
        assert a.validation == b.validation
        for u in a.eval_negatives:
            np.testing.assert_array_equal(a.eval_negatives[u], b.eval_negatives[u])

    def test_negatives_disjoint_from_interactions(self, tmp_path):
        ds = three_by_five(tmp_path)
        splits = split_leave_latest_out(ds, seed=3)
        for u, negs in splits.eval_negatives.items():
            full = set(ds.items_of(u))
            assert not (set(negs.tolist()) & full)
            assert len(set(negs.tolist())) == len(negs)

    def test_negative_count_clamped_by_catalog(self, tmp_path):
        ds = three_by_five(tmp_path)  # every user has 5 of the 8 items
        splits = split_leave_latest_out(ds, seed=0)
        for u in splits.eval_negatives:
            assert len(splits.eval_negatives[u]) == min(EVAL_NEGATIVES, ds.N - 5)

    def test_user_with_every_item_is_protocol_error(self, tmp_path):
        text = "a\tx\t1\na\ty\t2\na\tz\t3\n"
        ds = load_interactions(write(tmp_path, text))
        with pytest.raises(ProtocolError, match="'a'"):
            split_leave_latest_out(ds, seed=0)

    def test_short_history_user_kept_in_train_only(self, tmp_path):
        text = "a\tx\t1\na\ty\t2\na\tz\t3\na\tw\t4\nb\tx\t9\nb\tv\t8\n"
        ds = load_interactions(write(tmp_path, text))
        splits = split_leave_latest_out(ds, seed=0)
        b = ds.user_index["b"]
        assert splits.skipped_users == 1
        assert b not in splits.test and b not in splits.validation
        assert len(splits.train.items_of(b)) == 2


class TestMinibatches:
    def _dataset(self, n):
        rows = np.arange(n)
        return Dataset(
            M=1,
            N=n,
            indptr=np.array([0, n]),
            items=rows,
            stamps=rows,
            keys=rows,
            user_ids=["u"],
            item_ids=[f"i{k}" for k in range(n)],
            user_index={"u": 0},
            item_index={f"i{k}": k for k in range(n)},
        )

    def test_batch_sizes(self):
        ds = self._dataset(10)
        sizes = [len(us) for us, _ in minibatches(ds, 4, np.random.default_rng(0))]
        assert sizes == [4, 4, 2]

    def test_epoch_is_permutation(self):
        ds = self._dataset(16)
        items = np.concatenate([its for _, its in minibatches(ds, 5, np.random.default_rng(1))])
        assert sorted(items.tolist()) == list(range(16))

    def test_epochs_differ(self):
        ds = self._dataset(16)
        rng = np.random.default_rng(2)
        first = np.concatenate([its for _, its in minibatches(ds, 16, rng)])
        second = np.concatenate([its for _, its in minibatches(ds, 16, rng)])
        assert not np.array_equal(first, second)


class TestSampleNegative:
    def test_forced_outcome(self, tmp_path):
        ds = load_interactions(write(tmp_path, "a\tx\t1\nb\tx\t2\nb\ty\t3\n"))
        # user a interacted only with x (index 0); the sole negative is y
        rng = np.random.default_rng(0)
        assert sample_negative(ds, np.zeros(20, dtype=np.int64), rng).tolist() == [1] * 20

    def test_exhausted_user_errors(self, tmp_path):
        ds = load_interactions(write(tmp_path, "a\tx\t1\n"))
        with pytest.raises(SamplingError):
            sample_negative(ds, np.zeros(1, dtype=np.int64), np.random.default_rng(0))

    def test_uniform_over_complement(self, tmp_path):
        """10^5 draws over a 90-item complement: every count within 4 sigma
        of the binomial expectation, and no positive ever drawn."""
        lines = [f"u\titem{k:03d}\t{k}\n" for k in range(10)]
        lines += [f"v\titem{k:03d}\t{k}\n" for k in range(100)]
        ds = load_interactions(write(tmp_path, "".join(lines)))
        rng = np.random.default_rng(12345)
        draws = 100_000
        counts = np.bincount(sample_negative(ds, np.zeros(draws, dtype=np.int64), rng), minlength=ds.N)
        positives = set(ds.items_of(0))
        assert all(counts[i] == 0 for i in positives)
        p = 1.0 / 90.0
        sigma = np.sqrt(draws * p * (1 - p))
        for i in range(ds.N):
            if i not in positives:
                assert abs(counts[i] - draws * p) < 4 * sigma


    def test_matches_set_oracle(self, tmp_path):
        """The key-index rejection draws the same sequence as a frozenset
        rejection loop from an identically seeded generator, including for a
        user who holds all but one item."""
        N = 30
        lines = [f"full\titem{k:02d}\t{k}\n" for k in range(N - 1)]
        lines += [f"few\titem{k:02d}\t{k}\n" for k in (29, 3, 17)]
        lines += [f"half\titem{k:02d}\t{k}\n" for k in range(0, N, 2)]
        lines += ["one\titem05\t1\n"]
        ds = load_interactions(write(tmp_path, "".join(lines)))
        assert ds.N == N
        for u in range(ds.M):
            fast, slow = np.random.default_rng([11, u]), np.random.default_rng([11, u])
            got = sample_negative(ds, np.full(3000, u), fast).tolist()
            want = [sample_negative_set(ds.items_of(u), ds.N, slow) for _ in range(3000)]
            assert got == want
        assert set(got) == set(range(N)) - {5}

    def test_bulk_and_scalar_draws_are_one_stream(self):
        """``integers(N, size=k)`` yields the next k values of the stream
        that one ``integers(N)`` call at a time yields; the per-minibatch
        sampler relies on it."""
        bulk, scalar = np.random.default_rng(21), np.random.default_rng(21)
        for k in (1, 7, 512, 3):
            assert bulk.integers(30, size=k).tolist() == [int(scalar.integers(30)) for _ in range(k)]
        assert bulk.bit_generator.state == scalar.bit_generator.state

    def test_minibatch_matches_set_oracle(self, tmp_path):
        """Per-minibatch draws equal, draw for draw, the frozenset rejection
        loop run one triple at a time over the same minibatches for two
        epochs, and leave the generator where that loop leaves it; one user
        holds all but one item, so most of its draws are rejected."""
        N = 30
        lines = [f"full\titem{k:02d}\t{k}\n" for k in range(N - 1)]
        lines += [f"u{u}\titem{(7 * u + k) % N:02d}\t{k}\n" for u in range(12) for k in range(3 + u)]
        ds = load_interactions(write(tmp_path, "".join(lines)))
        assert ds.N == N
        order = np.random.default_rng(4)
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        batches = 0
        for _ in range(2):
            for us, _ in minibatches(ds, 16, order):
                got = sample_negative(ds, us, fast)
                want = [sample_negative_set(ds.items_of(u), N, slow) for u in us.tolist()]
                assert got.tolist() == want
                batches += 1
            assert fast.bit_generator.state == slow.bit_generator.state
        assert batches > 6

    def test_minibatch_with_exhausted_user_errors(self, tmp_path):
        ds = load_interactions(write(tmp_path, "a\tx\t1\nb\tx\t2\nb\ty\t3\n"))
        with pytest.raises(SamplingError, match="user index 1 "):
            sample_negative(ds, np.array([0, 1, 0]), np.random.default_rng(0))


class TestKeyIndex:
    def test_membership_matches_item_sets(self, tmp_path):
        logs = [load_interactions(write(tmp_path, SIX_LINES)), three_by_five(tmp_path)]
        logs.append(split_leave_latest_out(logs[1], seed=4).train)
        for ds in logs:
            assert np.all(np.diff(ds.keys) > 0)
            for u in range(ds.M):
                positives = set(ds.items_of(u))
                for i in range(ds.N):
                    assert ds.has(u, i) == (i in positives)
            us, its = np.divmod(np.arange(ds.M * ds.N), ds.N)
            want = [ds.has(u, i) for u, i in zip(us.tolist(), its.tolist())]
            assert ds.has(us, its).tolist() == want


class TestManifest:
    def test_round_trip_and_format(self, tmp_path):
        ds = three_by_five(tmp_path)
        splits = split_leave_latest_out(ds, seed=5)
        path = tmp_path / "manifest.tsv"
        write_manifest(splits, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == ds.n_interactions
        tags = [line.split("\t")[3] for line in lines]
        assert tags.count("test") == 3 and tags.count("val") == 3
        # columns 1-3 reload to the same interaction multiset
        body = "".join("\t".join(line.split("\t")[:3]) + "\n" for line in lines)
        reloaded = load_interactions(write(tmp_path, body, name="reload.tsv"))
        assert reloaded.n_interactions == ds.n_interactions

    def test_identical_bytes_across_runs(self, tmp_path):
        ds = three_by_five(tmp_path)
        a, b = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
        write_manifest(split_leave_latest_out(ds, seed=9), str(a))
        write_manifest(split_leave_latest_out(ds, seed=9), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestDeriveSeed:
    def test_purposes_give_independent_streams(self):
        a = np.random.default_rng(derive_seed(42, "shuffle")).integers(0, 1 << 30, 8)
        b = np.random.default_rng(derive_seed(42, "negatives")).integers(0, 1 << 30, 8)
        c = np.random.default_rng(derive_seed(42, "shuffle")).integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, c)
