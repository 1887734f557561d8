import numpy as np
import pytest

from _oracles import scatter_user_gradient_loops, user_rows_loops
from convncf.data import derive_seed
from convncf.embeddings import (
    FISM_NORM_EXCLUDED,
    FISM_NORM_FULL,
    EmbeddingTables,
    Variant,
    history_terms,
    init_tables,
    scatter_user_gradient,
    user_rows,
)


def unit_tables(M=5, N=9, K=4, variant=Variant.SVDPP, seed=0, alpha=0.5):
    return init_tables(M, N, K, variant, derive_seed(seed, "init"), scale=1.0, alpha=alpha)


def user_row(tables, variant, u, target, history, norm=FISM_NORM_EXCLUDED):
    """The one row ``user_rows`` builds for ``target`` (None: nothing excluded)."""
    targets = None if target is None else (target,)
    return user_rows(tables, variant, u, history_terms(history), targets, norm)[0]


class TestInit:
    def test_deterministic(self):
        a = init_tables(4, 6, 3, Variant.SVDPP, 7)
        b = init_tables(4, 6, 3, Variant.SVDPP, 7)
        np.testing.assert_array_equal(a.P, b.P)
        np.testing.assert_array_equal(a.Qp, b.Qp)

    def test_qp_absent_for_mf(self):
        t = init_tables(4, 6, 3, Variant.MF, 0)
        assert t.Qp is None
        assert init_tables(4, 6, 3, Variant.FISM, 0).Qp is not None

    def test_shapes_and_properties(self):
        t = init_tables(4, 6, 3, Variant.SVDPP, 0)
        assert t.P.shape == (4, 3) and t.Q.shape == (6, 3) and t.Qp.shape == (6, 3)
        assert (t.M, t.N, t.K) == (4, 6, 3)

    def test_scale_statistics(self):
        """Entries of a large table are mean ~0 with std ~scale (4 sigma)."""
        t = init_tables(300, 300, 32, Variant.MF, 123, scale=0.01)
        flat = np.concatenate([t.P.ravel(), t.Q.ravel()])
        assert abs(flat.mean()) < 4 * 0.01 / np.sqrt(flat.size)
        assert abs(flat.std() - 0.01) < 0.001

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_tables(0, 6, 3, Variant.MF, 0)


class TestUserEmbedding:
    def test_mf_is_user_row(self):
        t = unit_tables(variant=Variant.MF)
        np.testing.assert_array_equal(user_rows(t, Variant.MF, 3), t.P[3][None])
        np.testing.assert_array_equal(user_rows(t, Variant.MF, 3, None, (0, 4)), t.P[[3, 3]])

    def test_fism_excludes_target(self):
        t = unit_tables()
        history = [1, 4, 7]
        # with the target removed, n = 2 and only rows 1 and 7 are summed
        f = user_row(t, Variant.FISM, 0, 4, history)
        expect = (t.Qp[1] + t.Qp[7]) / np.sqrt(2.0)
        np.testing.assert_allclose(f, expect, atol=1e-15)

    def test_fism_single_other_item(self):
        t = unit_tables()
        f = user_row(t, Variant.FISM, 0, 4, [4, 6])
        np.testing.assert_allclose(f, t.Qp[6], atol=1e-15)

    def test_history_equal_to_target_is_zero(self):
        t = unit_tables()
        f = user_row(t, Variant.FISM, 0, 4, [4])
        np.testing.assert_array_equal(f, np.zeros(t.K))

    def test_duplicate_history_items_count_once(self):
        t = unit_tables()
        a = user_row(t, Variant.FISM, 0, None, [1, 1, 7, 7])
        b = user_row(t, Variant.FISM, 0, None, [1, 7])
        np.testing.assert_array_equal(a, b)

    def test_svdpp_adds_user_row(self):
        t = unit_tables()
        history = [0, 2, 5, 8]
        f = user_row(t, Variant.SVDPP, 1, 2, history)
        expect = t.P[1] + (t.Qp[0] + t.Qp[5] + t.Qp[8]) / 3.0 ** 0.5
        np.testing.assert_allclose(f, expect, atol=1e-15)

    def test_full_set_norm_differs(self):
        t = unit_tables()
        history = [1, 4, 7]
        ex = user_row(t, Variant.FISM, 0, 4, history, norm=FISM_NORM_EXCLUDED)
        fu = user_row(t, Variant.FISM, 0, 4, history, norm=FISM_NORM_FULL)
        np.testing.assert_allclose(fu * np.sqrt(3.0), ex * np.sqrt(2.0), atol=1e-15)

    def test_none_target_keeps_all_items(self):
        t = unit_tables()
        f = user_row(t, Variant.FISM, 0, None, [1, 4, 7])
        expect = (t.Qp[1] + t.Qp[4] + t.Qp[7]) / np.sqrt(3.0)
        np.testing.assert_allclose(f, expect, atol=1e-15)

    def test_linear_in_tables(self):
        """Scaling every table scales the embedding (all variants are linear)."""
        t = unit_tables()
        big = EmbeddingTables(P=2 * t.P, Q=2 * t.Q, Qp=2 * t.Qp, alpha=t.alpha)
        for var in Variant:
            a = user_row(t, var, 2, 5, [1, 3, 5])
            b = user_row(big, var, 2, 5, [1, 3, 5])
            np.testing.assert_allclose(b, 2 * a, atol=1e-14)


class TestScatterGradient:
    def test_mf_routes_to_user_row(self):
        d = np.array([1.0, -2.0, 0.5])
        g = scatter_user_gradient(Variant.MF, 4, (0,), [1, 2], d[None])
        rows, grads = g["P"]
        assert rows.tolist() == [4]
        np.testing.assert_array_equal(grads[0], d)
        assert set(g) == {"P"}

    def test_fism_spreads_scaled_gradient(self):
        d = np.array([2.0, 4.0])
        g = scatter_user_gradient(Variant.FISM, 0, (4,), [1, 4, 7], d[None])
        rows, grads = g["Qp"]
        assert rows.tolist() == [1, 7]
        for grad in grads:
            np.testing.assert_allclose(grad, d / np.sqrt(2.0), atol=1e-15)
        assert set(g) == {"Qp"}

    def test_svdpp_routes_both(self):
        d = np.array([1.0, 1.0])
        g = scatter_user_gradient(Variant.SVDPP, 3, (5,), [0, 2], d[None])
        rows, grads = g["P"]
        assert rows.tolist() == [3]
        np.testing.assert_array_equal(grads[0], d)
        assert g["Qp"][0].tolist() == [0, 2]

    def test_accumulates_across_calls(self):
        """The targets of one batch accumulate on the shared user row."""
        g = scatter_user_gradient(Variant.MF, 1, (0, 3), [], np.array([[1.0], [2.5]]))
        rows, grads = g["P"]
        assert rows.tolist() == [1]
        np.testing.assert_array_equal(grads, [[3.5]])

    def test_adjoint_identity(self):
        """<d, f(tables)> differentiated by hand equals the scatter output:
        for linear maps, f(perturbed) - f(tables) == sum of grad rows dotted
        with the perturbation rows, summed over the batch of targets."""
        rng = np.random.default_rng(42)
        t = unit_tables(seed=3)
        history = [1, 3, 5, 8]
        targets = (5, 0)
        d = rng.normal(size=(len(targets), t.K))
        for var, norm in [
            (Variant.MF, FISM_NORM_EXCLUDED),
            (Variant.FISM, FISM_NORM_EXCLUDED),
            (Variant.FISM, FISM_NORM_FULL),
            (Variant.SVDPP, FISM_NORM_EXCLUDED),
        ]:
            g = scatter_user_gradient(var, 2, targets, history, d, norm=norm)
            dP = rng.normal(size=t.P.shape)
            dQp = rng.normal(size=t.Qp.shape)
            bumped = EmbeddingTables(P=t.P + dP, Q=t.Q, Qp=t.Qp + dQp, alpha=t.alpha)
            terms = history_terms(history)
            before = sum(d[b] @ row for b, row in enumerate(user_rows(t, var, 2, terms, targets, norm)))
            after = sum(d[b] @ row for b, row in enumerate(user_rows(bumped, var, 2, terms, targets, norm)))
            bumps = {"P": dP, "Qp": dQp}
            via_grads = sum(vec @ bumps[name][r] for name, (rows, grads) in g.items() for r, vec in zip(rows, grads))
            assert after - before == pytest.approx(via_grads, abs=1e-10)

    def test_exclusion_invariance(self):
        """Perturbing the target's own history row never changes the score
        path: the target is excluded from its own history sum."""
        t = unit_tables(seed=9)
        f0 = user_row(t, Variant.FISM, 0, 4, [1, 4, 7])
        t.Qp[4] += 100.0
        f1 = user_row(t, Variant.FISM, 0, 4, [1, 4, 7])
        np.testing.assert_array_equal(f0, f1)


class TestScatterMatchesLoopOracle:
    """The array scatter equals, bit for bit, the per-row dict accumulation
    of one pass per target."""

    CASES = {
        "positive_in_history": ([1, 4, 7, 2], (4, 5)),
        "empty_history": ([], (4, 5)),
        "row_reached_by_both": ([1, 6, 2], (4, 5)),
        "same_target_twice": ([1, 4, 7], (4, 4)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("norm", [FISM_NORM_EXCLUDED, FISM_NORM_FULL])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_bit_identical(self, variant, norm, case):
        history, targets = self.CASES[case]
        d = np.random.default_rng(5).normal(size=(len(targets), 4))
        got = scatter_user_gradient(variant, 3, targets, history, d, alpha=0.75, norm=norm)
        want = scatter_user_gradient_loops(variant, 3, targets, history, d, alpha=0.75, norm=norm)
        assert set(got) == set(want)
        for name, (rows, grads) in got.items():
            assert len(set(rows.tolist())) == len(rows), name
            assert sorted(rows.tolist()) == sorted(want[name]), name
            for r, grad in zip(rows.tolist(), grads):
                assert grad.tobytes() == want[name][r].tobytes(), (name, r)


class TestUserRowsMatchLoopOracle:
    """The masked batch sum equals, bit for bit, one gather-then-sum pass per
    target, for a batch of targets and for one row with nothing excluded."""

    @pytest.mark.parametrize("case", sorted(TestScatterMatchesLoopOracle.CASES))
    @pytest.mark.parametrize("norm", [FISM_NORM_EXCLUDED, FISM_NORM_FULL])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_bit_identical(self, variant, norm, case):
        history, targets = TestScatterMatchesLoopOracle.CASES[case]
        t = unit_tables(seed=4, alpha=0.75)
        terms = history_terms(history)
        for batch in (targets, None):
            got = user_rows(t, variant, 3, terms, batch, norm)
            want = user_rows_loops(t, variant, 3, (None,) if batch is None else batch, history, norm)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
