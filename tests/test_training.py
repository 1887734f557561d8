import copy
import inspect
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import _oracles
from convncf import embeddings, model, tensor, training
from convncf.data import derive_seed, load_interactions, minibatches, sample_negative, split_leave_latest_out
from convncf.embeddings import EmbeddingTables, Variant, init_tables, user_rows
from convncf.gradcheck import triple_gradients
from convncf.model import (
    ConvWork,
    HeadKind,
    IdentityHead,
    MergeKind,
    ModelSpec,
    head_backward,
    head_forward,
    head_sections,
    head_views,
    merge,
    new_head,
    predict_batch,
    section_arrays,
    tower_work,
)
from convncf.training import (
    LN2,
    METRICS_HEADER,
    AdagradState,
    NonFiniteError,
    TrainConfig,
    _run_epochs,
    adagrad_pass,
    adagrad_step,
    bpr,
    evaluate_state,
    pretrain,
    train,
    train_step,
    triple_forward,
    write_metrics_csv,
)

from _oracles import AdagradStateLoops, mlp_loops, train_step_loops
from test_model import ALL_COMBOS, largest_statement_allocation

# frozen reference values, computed once with mpmath at 50 digits
SOFTPLUS_NEG20 = 2.061153620314381e-09
SOFTPLUS_POS2 = 2.1269280110429727


def make_splits(tmp_path, M=12, N=15, per_user=6):
    lines = []
    for u in range(M):
        for k in range(per_user):
            lines.append(f"u{u}\titem{(u * 2 + k) % N:02d}\t{k}\n")
    path = tmp_path / "train.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    ds = load_interactions(str(path))
    return split_leave_latest_out(ds, derive_seed(7, "split"))


def inner_spec(K=2):
    return ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=K)


def cnn_spec(K=4, C=2, seed=3):
    head = new_head(HeadKind.CNN, MergeKind.OUTER, K, C, 2, derive_seed(seed, "init_head"))
    return ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=head, K=K)


class TestBprLoss:
    def test_zero_margin_is_ln2(self):
        assert bpr(0.0, 0.0)[0] == pytest.approx(LN2, rel=1e-15)
        assert bpr(3.7, 3.7)[0] == pytest.approx(LN2, rel=1e-15)

    def test_frozen_values(self):
        assert bpr(10.0, -10.0)[0] == pytest.approx(SOFTPLUS_NEG20, rel=1e-12)
        assert bpr(-1.0, 1.0)[0] == pytest.approx(SOFTPLUS_POS2, rel=1e-14)

    def test_no_overflow_at_extreme_margins(self):
        assert bpr(-500.0, 500.0)[0] == pytest.approx(1000.0, rel=1e-12)
        assert bpr(500.0, -500.0)[0] == 0.0  # underflows cleanly, not nan

    def test_symmetric_pair_sum_bounded_below(self):
        """loss(a,b) + loss(b,a) >= 2 ln 2 with equality only at a == b."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = rng.normal(size=2) * 3
            total = bpr(a, b)[0] + bpr(b, a)[0]
            assert total >= 2 * LN2 - 1e-12
        assert bpr(1.0, 1.0)[0] + bpr(1.0, 1.0)[0] == pytest.approx(2 * LN2)

    def test_grad_matches_finite_difference(self):
        """coeff is d loss / d y_neg, and -coeff d loss / d y_pos."""
        rng = np.random.default_rng(9)
        for _ in range(25):
            yp, yn = rng.normal(size=2) * 2
            coeff = bpr(yp, yn)[1]
            step = 1e-6
            num_p = (bpr(yp + step, yn)[0] - bpr(yp - step, yn)[0]) / (2 * step)
            num_n = (bpr(yp, yn + step)[0] - bpr(yp, yn - step)[0]) / (2 * step)
            assert -coeff == pytest.approx(num_p, abs=1e-6)
            assert coeff == pytest.approx(num_n, abs=1e-6)

    def test_grads_are_opposite(self):
        """Raising the positive's score lowers the loss, raising the
        negative's raises it."""
        loss, coeff = bpr(0.3, -0.2)
        assert 0.0 < coeff < 0.5
        assert bpr(0.3 + 1e-3, -0.2)[0] < loss < bpr(0.3, -0.2 + 1e-3)[0]

    @pytest.mark.parametrize(
        "y_pos,y_neg,loss,coeff",
        [
            (0.0, 0.0, LN2, 0.5),
            (0.0, 800.0, 800.0, 1.0),
            (800.0, 0.0, 0.0, 0.0),
            (0.0, 1e308, 1e308, 1.0),
            (1e308, 0.0, 0.0, 0.0),
        ],
    )
    def test_coefficient_limits(self, y_pos, y_neg, loss, coeff):
        """Exactly 0.5 at margin 0, and exactly 1 and 0 far out, with no
        overflow, invalid operation or division by zero on the way. (Far
        out, exp(-|x|) underflows to 0: that flag is the one left alone.)"""
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = bpr(y_pos, y_neg)
        assert got == (loss, coeff)
        assert [type(v) for v in got] == [float, float]


class TestAdagrad:
    def test_first_step_closed_form(self):
        theta = np.array([1.0])
        state = np.zeros(1)
        adagrad_step(theta, np.array([1.0]), state, lr=0.1, epsilon=1e-6, out=np.empty(1))
        assert state[0] == 1.0
        assert theta[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-6), rel=1e-15)

    def test_second_step_scales_by_sqrt2(self):
        theta = np.array([0.0])
        state = np.zeros(1)
        adagrad_step(theta, np.array([1.0]), state, lr=0.1, epsilon=1e-6, out=np.empty(1))
        first = -theta[0]
        adagrad_step(theta, np.array([1.0]), state, lr=0.1, epsilon=1e-6, out=np.empty(1))
        second = -theta[0] - first
        assert state[0] == 2.0
        assert second == pytest.approx(0.1 / (math.sqrt(2.0) + 1e-6), rel=1e-12)
        assert second < first

    def test_zero_gradient_changes_nothing(self):
        theta = np.array([0.5, -0.5])
        state = np.array([4.0, 0.0])
        before = theta.copy()
        adagrad_step(theta, np.zeros(2), state, lr=0.1, epsilon=1e-6, out=np.empty(2))
        np.testing.assert_array_equal(theta, before)
        np.testing.assert_array_equal(state, [4.0, 0.0])

    def test_accumulator_is_monotone(self):
        state = np.zeros(3)
        rng = np.random.default_rng(4)
        prev = state.copy()
        for _ in range(10):
            adagrad_step(np.zeros(3), rng.normal(size=3), state, lr=0.1, epsilon=1e-6, out=np.empty(3))
            assert (state >= prev).all()
            prev = state.copy()

    def test_row_view_updates_parent_in_place(self):
        P = np.ones((3, 2))
        state = np.zeros((3, 2))
        adagrad_step(P[1], np.array([1.0, 2.0]), state[1], lr=0.1, epsilon=1e-6, out=np.empty(2))
        np.testing.assert_array_equal(P[0], [1.0, 1.0])
        np.testing.assert_array_equal(P[2], [1.0, 1.0])
        assert (P[1] < 1.0).all() and (state[1] > 0).all()


class TestTrainStep:
    def test_whole_step_matches_hand_rolled_update(self):
        """One regularized step on the inner-product model, re-derived with
        scalar arithmetic: BPR coefficient, per-row L2, first-step Adagrad."""
        t = init_tables(3, 4, 2, Variant.MF, 5, scale=1.0)
        P0, Q0 = t.P.copy(), t.Q.copy()
        spec = inner_spec()
        cfg = TrainConfig(lr_embed=0.05, lambda1=0.01, lambda2=0.02, epochs=1)
        states = AdagradState(spec, t)
        u, i, j = 1, 2, 0
        loss = train_step(spec, t, (u, i, j), cfg, states, regularize=True)

        margin = float(P0[u] @ Q0[i] - P0[u] @ Q0[j])
        coeff = 1.0 / (1.0 + np.exp(margin))
        assert loss == pytest.approx(np.log1p(np.exp(-margin)), rel=1e-12)

        gP = -coeff * Q0[i] + coeff * Q0[j] + 2 * 0.01 * P0[u]
        gQi = -coeff * P0[u] + 2 * 0.02 * Q0[i]
        gQj = coeff * P0[u] + 2 * 0.02 * Q0[j]
        for row0, grad, row in (
            (P0[u], gP, t.P[u]),
            (Q0[i], gQi, t.Q[i]),
            (Q0[j], gQj, t.Q[j]),
        ):
            expect = row0 - 0.05 * grad / (np.abs(grad) + 1e-6)
            np.testing.assert_allclose(row, expect, rtol=1e-12)
        np.testing.assert_array_equal(t.P[0], P0[0])
        np.testing.assert_array_equal(t.P[2], P0[2])
        np.testing.assert_array_equal(t.Q[1], Q0[1])
        np.testing.assert_array_equal(t.Q[3], Q0[3])

    def test_zero_net_head_gives_ln2_loss(self):
        t = init_tables(3, 4, 4, Variant.MF, 0, scale=1.0)
        spec = cnn_spec()
        spec.head.w[:] = 0.0
        states = AdagradState(spec, t)
        loss = train_step(spec, t, (0, 1, 2), TrainConfig(), states, regularize=False)
        assert loss == pytest.approx(LN2, abs=1e-12)

    def test_reported_loss_is_pre_update_data_loss(self):
        t = init_tables(3, 4, 4, Variant.MF, 1, scale=1.0)
        spec = cnn_spec(seed=11)
        before = bpr(*predict_batch(spec, t, 0, [1, 2]))[0]
        states = AdagradState(spec, t)
        cfg = TrainConfig(lambda3=50.0, lambda4=50.0)
        loss = train_step(spec, t, (0, 1, 2), cfg, states, regularize=True)
        assert loss == pytest.approx(before, rel=1e-12)

    def test_large_lambda4_shrinks_every_w_coordinate(self):
        t = init_tables(3, 4, 4, Variant.MF, 2, scale=0.01)
        spec = cnn_spec(seed=7)
        w0 = spec.head.w.copy()
        states = AdagradState(spec, t)
        cfg = TrainConfig(lambda3=0.0, lambda4=50.0, lr_net=0.01)
        train_step(spec, t, (1, 0, 3), cfg, states, regularize=True)
        assert (np.abs(spec.head.w) < np.abs(w0)).all()

    def test_unregularized_flag_skips_l2(self):
        t1 = init_tables(3, 4, 2, Variant.MF, 6, scale=1.0)
        t2 = copy.deepcopy(t1)
        spec = inner_spec()
        heavy = TrainConfig(lambda1=100.0, lambda2=100.0)
        light = TrainConfig(lambda1=0.0, lambda2=0.0)
        train_step(spec, t1, (0, 1, 2), heavy, AdagradState(spec, t1), regularize=False)
        train_step(spec, t2, (0, 1, 2), light, AdagradState(spec, t2), regularize=False)
        np.testing.assert_array_equal(t1.P, t2.P)
        np.testing.assert_array_equal(t1.Q, t2.Q)

    def test_triple_gradients_share_positive_negative_paths(self):
        """The user row accumulates both branches; each item row only its own."""
        t = init_tables(3, 4, 2, Variant.MF, 8, scale=1.0)
        grads, rows = triple_gradients(inner_spec(), t, 1, 2, 0, None)
        P_rows, P_grads = rows["P"], grads["P"]
        Q_rows = rows["Q"]
        assert P_rows.tolist() == [1]
        assert sorted(Q_rows.tolist()) == [0, 2]
        coeff = bpr(*triple_forward(inner_spec(), t, 1, 2, 0, None, None)[-1].tolist())[1]
        np.testing.assert_allclose(P_grads[0], -coeff * t.Q[2] + coeff * t.Q[0], rtol=1e-12)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_table_update_matches_per_row_loop(self, variant):
        """Each section's one gathered step equals, bit for bit, one Adagrad
        step per touched row, accumulators included."""
        t = init_tables(4, 9, 4, variant, derive_seed(2, "init"), scale=1.0)
        spec = ModelSpec(variant=variant, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        cfg = TrainConfig(lambda1=0.3, lambda2=0.2)
        states = AdagradState(spec, t)
        for acc in states.values():
            acc += 0.5
        want_t, want_s = copy.deepcopy(t), copy.deepcopy(states)
        terms = np.array([0, 2, 4, 7])
        grads, rows = triple_gradients(spec, t, 1, 2, 5, terms)
        for name, index in rows.items():
            table = getattr(want_t, name)
            lam = cfg.lambda2 if name == "Q" else cfg.lambda1
            for r, grad in zip(index.tolist(), grads[name]):
                step = grad + 2.0 * lam * table[r]
                adagrad_step(table[r], step, want_s[name][r], cfg.lr_embed, cfg.adagrad_epsilon, np.empty_like(step))
        train_step(spec, t, (1, 2, 5), cfg, states, regularize=True, terms=terms)
        for name in states:
            assert getattr(t, name).tobytes() == getattr(want_t, name).tobytes(), name
            assert states[name].tobytes() == want_s[name].tobytes(), name

    @pytest.mark.parametrize(
        "variant,mk,hk",
        [
            (Variant.MF, MergeKind.OUTER, HeadKind.CNN),
            (Variant.SVDPP, MergeKind.OUTER, HeadKind.CNN),
            (Variant.MF, MergeKind.ELEMENTWISE, HeadKind.LINEAR),
        ],
    )
    def test_head_grads_are_two_single_row_passes_summed(self, variant, mk, hk):
        """The batch-of-two backward gives, bit for bit, the sum of the
        positive's and the negative's batch-of-one backward passes."""
        t = init_tables(4, 9, 8, variant, derive_seed(3, "init"), scale=1.0)
        head = new_head(hk, mk, 8, 4, 2, derive_seed(3, "init_head"))
        spec = ModelSpec(variant=variant, merge=mk, head=head, K=8)
        u, i, j, terms = 1, 2, 5, np.array([0, 2, 4, 7])
        grads, _ = triple_gradients(spec, t, u, i, j, terms)
        passes = []
        coeff = bpr(*triple_forward(spec, t, u, i, j, terms, tower_work(spec, 2))[-1].tolist())[1]
        for target, d_y in zip((i, j), (-coeff, coeff)):
            fU = user_rows(spec, t, [u], terms[None], (target,))
            merged = merge(mk, fU, t.Q[[target]])
            work = tower_work(spec, 1)
            acts, _ = head_forward(spec, merged, work)
            passes.append(head_views(spec.head))
            head_backward(spec, merged, acts, np.array([d_y]), passes[-1], work)
        assert list(grads)[: len(passes[0])] == list(passes[0])
        for name in passes[0]:
            assert grads[name].tobytes() == (passes[0][name] + passes[1][name]).tobytes(), name

    @pytest.mark.parametrize("mk", [MergeKind.OUTER, MergeKind.CONCAT])
    def test_mlp_head_grads_match_per_row_loop_oracle(self, mk):
        """An MLP head's batch-of-two backward sums over the pair inside its
        matrix products; its scores and gradients equal the positive's and
        the negative's row-by-row loop passes summed, to rounding."""
        t = init_tables(4, 9, 8, Variant.MF, derive_seed(3, "init"), scale=1.0)
        head = new_head(HeadKind.MLP, mk, 8, 4, 2, derive_seed(3, "init_head"))
        spec = ModelSpec(variant=Variant.MF, merge=mk, head=head, K=8)
        u, i, j = 1, 2, 5
        got, _ = triple_gradients(spec, t, u, i, j, None)
        y_pos, y_neg = triple_forward(spec, t, u, i, j, None, None)[-1].tolist()
        merged = merge(mk, user_rows(spec, t, [u, u], targets=(i, j)), t.Q[[i, j]])
        coeff = bpr(y_pos, y_neg)[1]
        _, y, grads, _ = mlp_loops(head, merged.reshape(2, -1), np.array((-coeff, coeff)))
        np.testing.assert_allclose([y_pos, y_neg], y, rtol=1e-12)
        got_head = {name: got[name] for name, _ in head_sections(head)}
        assert sorted(got_head) == sorted(grads)
        for name, grad in got_head.items():
            np.testing.assert_allclose(grad, grads[name], rtol=1e-12, err_msg=name)

    def test_wide_mlp_triple_allocates_one_weight_gradient(self):
        """At K=64 MLP-over-OUTER, one triple's gradients peak below twice
        the first weight matrix (64 MiB), which its gradient alone fills: no
        per-row outer product is built before the sum."""
        t = init_tables(3, 6, 64, Variant.MF, derive_seed(3, "init"), scale=1.0)
        head = new_head(HeadKind.MLP, MergeKind.OUTER, 64, 1, 1, derive_seed(3, "init_head"))
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=head, K=64)
        tracemalloc.start()
        try:
            triple_gradients(spec, t, 1, 2, 5, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = 2 * head.layers[0].W.nbytes
        assert peak < limit, f"peak {peak} B, limit {limit} B"


class TestPackedHead:
    HEADS = [
        (MergeKind.OUTER, HeadKind.CNN),
        (MergeKind.OUTER, HeadKind.MLP),
        (MergeKind.ELEMENTWISE, HeadKind.LINEAR),
        (MergeKind.INNER, HeadKind.IDENTITY),
    ]

    @pytest.mark.parametrize("part", [None, 7])
    @pytest.mark.parametrize("regularize", [True, False])
    @pytest.mark.parametrize("lambdas", [(0.3, 0.05), (0.0, 0.05), (0.3, 0.0)])
    @pytest.mark.parametrize("mk,hk", HEADS)
    def test_step_matches_per_section_loop(self, monkeypatch, mk, hk, lambdas, regularize, part):
        """Three steps of the packed head equal, bit for bit, one Adagrad
        step per section with its own L2 (lambda4 on w, lambda3 elsewhere)
        and one per touched table row, accumulators included; also when the
        head steps in parts of 7 entries, one of which straddles the tower's
        end."""
        if part:
            monkeypatch.setattr(training, "HEAD_STEP_ENTRIES", part)
        t = init_tables(4, 9, 4, Variant.SVDPP, derive_seed(6, "init"), scale=1.0)
        head = new_head(hk, mk, 4, 3, 2, derive_seed(6, "init_head"))
        spec = ModelSpec(variant=Variant.SVDPP, merge=mk, head=head, K=4)
        cfg = TrainConfig(lambda1=0.2, lambda2=0.1, lambda3=lambdas[0], lambda4=lambdas[1])
        want_spec, want_t = copy.deepcopy((spec, t))
        states = AdagradState(spec, t)
        want_s = {name: np.zeros_like(arr) for name, arr in section_arrays(want_spec, want_t).items()}
        terms = np.array([0, 2, 4, 7])
        for triple in ((1, 2, 5), (3, 0, 8), (1, 4, 6)):
            grads, rows = triple_gradients(want_spec, want_t, *triple, terms)
            for name, arr in head_sections(want_spec.head):
                grad, lam = grads[name], cfg.lambda4 if name == "w" else cfg.lambda3
                if regularize and lam:
                    grad = np.array(grad + 2.0 * lam * arr)  # an array also for a 0-d section: the step scales it in place
                adagrad_step(arr, grad, want_s[name], cfg.lr_net, cfg.adagrad_epsilon, np.empty_like(grad))
            for name, index in rows.items():
                table, lam = getattr(want_t, name), cfg.lambda2 if name == "Q" else cfg.lambda1
                for r, grad in zip(index.tolist(), grads[name]):
                    if regularize and lam:
                        grad = grad + 2.0 * lam * table[r]
                    adagrad_step(table[r], grad, want_s[name][r], cfg.lr_embed, cfg.adagrad_epsilon, np.empty_like(grad))
            train_step(spec, t, triple, cfg, states, regularize, terms)
        got, want = section_arrays(spec, t), section_arrays(want_spec, want_t)
        assert list(got) == list(want)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
        names = [name for name, _ in head_sections(spec.head)]
        assert states.acc[: states.size].tobytes() == b"".join(want_s[name].tobytes() for name in names)
        for name in ("P", "Q", "Qp"):
            assert states[name].tobytes() == want_s[name].tobytes(), name

    def test_wide_mlp_step_allocates_one_head_copy(self):
        """A K=32 MLP-over-OUTER step (a 0.5M-entry packed head) peaks below
        2.5x the packed head's bytes: the section gradients go once packed,
        L2 and Adagrad run in place over cache-sized parts."""
        t = init_tables(3, 6, 32, Variant.MF, derive_seed(3, "init"), scale=1.0)
        head = new_head(HeadKind.MLP, MergeKind.OUTER, 32, 1, 1, derive_seed(3, "init_head"))
        spec = ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=head, K=32)
        states = AdagradState(spec, t)
        tracemalloc.start()
        try:
            train_step(spec, t, (1, 2, 5), TrainConfig(), states, regularize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = 2.5 * states.params[: states.size].nbytes
        assert peak < limit, f"peak {peak} B, limit {limit} B"

    @pytest.mark.parametrize("mk,hk", HEADS[:3])
    def test_run_buffers_hold_nothing_between_steps(self, mk, hk):
        """Twenty steps through one AdagradState, whose gradient vector,
        slots, scratch part, user-row cotangents and conv tower buffers
        (activations, maps, cotangents, relu masks, per-row kernel
        gradients) every step reuses, with the views of them built once,
        equal twenty steps that find each of those buffers fresh and filled
        with all-ones bytes (NaN, or no valid bool), bit for bit,
        accumulators included: no step reads what an earlier step left
        behind."""
        t = init_tables(6, 12, 4, Variant.SVDPP, derive_seed(8, "init"), scale=1.0)
        head = new_head(hk, mk, 4, 3, 2, derive_seed(8, "init_head"))
        spec = ModelSpec(variant=Variant.SVDPP, merge=mk, head=head, K=4)
        cfg = TrainConfig(lambda1=0.2, lambda2=0.1, lambda3=0.3, lambda4=0.05)
        rng = np.random.default_rng(8)
        steps = []
        for _ in range(20):
            u, i, j = (int(x) for x in rng.choice(12, size=3, replace=False))
            steps.append(((u % 6, i, j), np.sort(rng.choice(12, size=int(rng.integers(1, 6)), replace=False))))

        def run(fresh):
            run_spec, run_t = copy.deepcopy((spec, t))
            states = AdagradState(run_spec, run_t, history_rows=5)
            for k, (triple, terms) in enumerate(steps):
                if fresh:
                    bufs = [states.grad, states.scratch, states.d_FU, states.params[states.size :], states.acc[states.size :]]
                    if states.work is not None:
                        states.work = work = ConvWork(run_spec.head, 2)
                        d_acts, masks, d_kernels, d_rows = work.cotangents
                        bufs += [*work.acts, work.E, *d_acts, *masks, *d_kernels, d_rows]
                    for buf in bufs:
                        buf.view(np.uint8).fill(0xFF)  # NaN in every float64 entry, no valid bool in a mask
                train_step(run_spec, run_t, triple, cfg, states, k > 0, terms)
            arrays = [*section_arrays(run_spec, run_t).values(), states.acc[: states.size], *states.values()]
            return [arr.tobytes() for arr in arrays]

        assert (AdagradState(spec, copy.deepcopy(t)).work is not None) == (hk is HeadKind.CNN)
        assert run(fresh=False) == run(fresh=True)

    def test_flagship_step_allocates_no_layer_array(self):
        """After a warm-up step, one K=64 C=32 conv step allocates no array
        of 16 KiB or more: its layer-1 activations and cotangents (512 KiB
        per triple) live in the run's buffers, so its speed cannot hang on
        glibc's mmap threshold, which arrays of that size cross; Adagrad
        scales the gradient in place (a 128 KiB part); the quadtree gathers
        copy no index array (32 KiB at K=64); and no layer's sliced view is
        a copy."""
        t = init_tables(3, 6, 64, Variant.MF, derive_seed(3, "init"), scale=0.13)
        spec = cnn_spec(K=64, C=32)
        states = AdagradState(spec, t)
        train_step(spec, t, (1, 2, 5), TrainConfig(), states, regularize=True)
        largest = largest_statement_allocation(train_step, spec, t, (0, 3, 4), TrainConfig(), states, True)
        assert largest < 16 * 2**10, f"{largest} B in one statement"

    def test_sections_are_views_of_the_packed_vector(self):
        t = init_tables(3, 4, 4, Variant.MF, 0, scale=1.0)
        spec = cnn_spec(K=4, C=2)
        before = [arr.copy() for _, arr in head_sections(spec.head)]
        states = AdagradState(spec, t)
        sections = head_sections(spec.head)
        assert [name for name, _ in sections] == list(states.grads)[: len(sections)]
        assert states.size == sum(arr.size for arr in before)
        assert states.tower == states.size - spec.head.w.size
        for (name, arr), old in zip(sections, before):
            assert np.shares_memory(arr, states.params[: states.size]), name
            assert arr.shape == old.shape and arr.tobytes() == old.tobytes(), name

    def test_training_a_deep_copy_gives_the_same_bytes(self, tmp_path):
        """train() packs whatever spec it gets: a deep copy, fresh or of a
        spec already packed by an earlier run, trains exactly as the
        original does."""
        splits = make_splits(tmp_path)
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 3, scale=0.1)
        spec = cnn_spec(K=4, C=2, seed=4)
        cfg = TrainConfig(epochs=2, seed=9)
        for _ in range(2):
            copy_spec, copy_tables = copy.deepcopy((spec, tables))
            train(spec, tables, splits, cfg)
            train(copy_spec, copy_tables, splits, cfg)
            got, want = section_arrays(copy_spec, copy_tables), section_arrays(spec, tables)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name


def planted_splits(tmp_path, M=30, N=40, per_user=8):
    from convncf.synthetic import planted_interactions, write_interactions

    path = str(tmp_path / "planted.tsv")
    write_interactions(planted_interactions(M=M, N=N, per_user=per_user, seed=4), path)
    return split_leave_latest_out(load_interactions(path), derive_seed(4, "split"))


def triples_of(train_ds, count, seed=5):
    """``count`` training triples in epoch order, negatives drawn per batch."""
    rng, neg_rng, out = np.random.default_rng(seed), np.random.default_rng(seed + 1), []
    while len(out) < count:
        for us, its in minibatches(train_ds, 64, rng):
            out += zip(us.tolist(), its.tolist(), sample_negative(train_ds, us, neg_rng).tolist())
    return out[:count]


class TestOneVectorStep:
    """The one-vector step against the section-by-section step it replaced
    (``_oracles.train_step_loops``)."""

    @pytest.mark.parametrize("part", [None, 7])
    @pytest.mark.parametrize("regularize", [True, False])
    @pytest.mark.parametrize("variant,mk,hk", ALL_COMBOS)
    def test_matches_loop_oracle(self, tmp_path, monkeypatch, variant, mk, hk, regularize, part):
        """300 triples leave every table, head section and accumulator
        byte-identical to the loop oracle's, also when the vector steps in
        parts of 7 entries."""
        if part:
            monkeypatch.setattr(training, "HEAD_STEP_ENTRIES", part)
        splits = planted_splits(tmp_path)
        train_ds = splits.train
        t = init_tables(train_ds.M, train_ds.N, 4, variant, derive_seed(6, "init"), scale=0.5)
        head = new_head(hk, mk, 4, 3, 2, derive_seed(6, "init_head"))
        spec = ModelSpec(variant=variant, merge=mk, head=head, K=4)
        cfg = TrainConfig(lambda1=0.2, lambda2=0.1, lambda3=0.3, lambda4=0.05)
        want_spec, want_t = copy.deepcopy((spec, t))
        states = AdagradState(spec, t, int(np.diff(train_ds.indptr).max()))
        want_s = AdagradStateLoops(want_spec, want_t)
        for u, i, j in triples_of(train_ds, 300):
            terms = train_ds.terms_of(u) if variant.reads_history else None
            loss = train_step(spec, t, (u, i, j), cfg, states, regularize, terms)
            assert loss == train_step_loops(want_spec, want_t, (u, i, j), cfg, want_s, regularize, terms)
        got, want = section_arrays(spec, t), section_arrays(want_spec, want_t)
        assert list(got) == list(want)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
        assert states.acc[: states.size].tobytes() == want_s.head_acc.tobytes()
        assert list(states) == list(want_s) == list(variant.tables)
        for name in states:
            assert states[name].tobytes() == want_s[name].tobytes(), name

    @pytest.mark.parametrize("part", [None, 7])
    def test_one_state_follows_changing_hyper_parameters(self, tmp_path, monkeypatch, part):
        """One state stepped under changing regularize, lambdas and learning
        rates (the pass's parts are rebuilt when they change) matches the
        oracle stepping under the same sequence."""
        if part:
            monkeypatch.setattr(training, "HEAD_STEP_ENTRIES", part)
        splits = planted_splits(tmp_path)
        train_ds = splits.train
        t = init_tables(train_ds.M, train_ds.N, 4, Variant.SVDPP, derive_seed(6, "init"), scale=0.5)
        head = new_head(HeadKind.CNN, MergeKind.OUTER, 4, 3, 2, derive_seed(6, "init_head"))
        spec = ModelSpec(variant=Variant.SVDPP, merge=MergeKind.OUTER, head=head, K=4)
        want_spec, want_t = copy.deepcopy((spec, t))
        states = AdagradState(spec, t, int(np.diff(train_ds.indptr).max()))
        want_s = AdagradStateLoops(want_spec, want_t)
        cfg = TrainConfig(lambda1=0.2, lambda2=0.1, lambda3=0.3, lambda4=0.05)
        configs = [(cfg, False), (cfg, True)]
        changes = {"lr_net": 0.02, "lr_embed": 0.01, "lambda1": 0.0, "lambda2": 0.3, "lambda3": 0.5, "lambda4": 0.0}
        for key, value in changes.items():
            cfg = replace(cfg, **{key: value})  # one change at a time
            configs.append((cfg, True))
        for k, (u, i, j) in enumerate(triples_of(train_ds, 25 * len(configs))):
            cfg, regularize = configs[k // 25]
            terms = train_ds.terms_of(u)
            train_step(spec, t, (u, i, j), cfg, states, regularize, terms)
            train_step_loops(want_spec, want_t, (u, i, j), cfg, want_s, regularize, terms)
        got, want = section_arrays(spec, t), section_arrays(want_spec, want_t)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
        assert states.acc[: states.size].tobytes() == want_s.head_acc.tobytes()

    @pytest.mark.parametrize("lambdas", [(0.3, 0.0, 0.2, 0.1), (0.0, 0.0, 0.0, 0.0)])
    def test_zero_lambda_stretches_keep_their_bits(self, monkeypatch, lambdas):
        """With lambda4 = 0 (and lambda3 > 0), or every lambda 0, under
        regularize=True, one pass over a crafted gradient with -0.0 entries
        equals the oracle's step on the same gradients, bit for bit. For a
        finite parameter an L2 add of x * 0.0 keeps the step's bits (x * 0.0
        carries x's sign), so the zero-lambda stretches also hold infinite
        parameters, whose x * 0.0 is NaN: a pass that added L2 there would
        differ, and warn."""
        lam3, lam4, lam1, lam2 = lambdas
        t = init_tables(4, 9, 4, Variant.SVDPP, derive_seed(6, "init"), scale=1.0)
        head = new_head(HeadKind.CNN, MergeKind.OUTER, 4, 3, 2, derive_seed(6, "init_head"))
        spec = ModelSpec(variant=Variant.SVDPP, merge=MergeKind.OUTER, head=head, K=4)
        cfg = TrainConfig(lambda1=lam1, lambda2=lam2, lambda3=lam3, lambda4=lam4)
        rows = {"P": np.array([1]), "Q": np.array([2, 5]), "Qp": np.array([0, 4, 7])}
        rng = np.random.default_rng(8)

        def crafted(shape, zero_lambda):
            x = rng.normal(size=shape)
            flat = x.reshape(-1)
            flat[::3], flat[1::5] = -0.0, 0.0
            if zero_lambda:
                flat[2::7] = np.inf
            return x

        head_grads = {name: crafted(arr.shape, False) for name, arr in head_sections(spec.head)}
        table_grads = {name: (r, crafted((len(r), 4), False)) for name, r in rows.items()}
        for name, arr in head_sections(spec.head):
            arr[...] = crafted(arr.shape, lam4 == 0 if name == "w" else lam3 == 0)
        for name, r in rows.items():
            getattr(t, name)[r] = crafted((len(r), 4), (lam2 if name == "Q" else lam1) == 0)
        want_spec, want_t = copy.deepcopy((spec, t))
        states, want_s = AdagradState(spec, t), AdagradStateLoops(want_spec, want_t)
        for acc in [*states.values(), states.acc[: states.size], *want_s.values(), want_s.head_acc]:
            acc += 0.25

        for name, grad in head_grads.items():
            states.grads[name][...] = grad
        for name, (r, grad) in table_grads.items():
            states.grads[name][: len(r)] = grad
        adagrad_pass(t, states, rows, cfg, regularize=True)

        monkeypatch.setattr(
            _oracles,
            "compute_triple_gradients_loops",
            lambda *args: _oracles.LoopGrads(0.0, copy.deepcopy(head_grads), copy.deepcopy(table_grads)),
        )
        train_step_loops(want_spec, want_t, (1, 2, 5), cfg, want_s, True, np.array([0, 4, 7]))
        got, want = section_arrays(spec, t), section_arrays(want_spec, want_t)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
        assert states.acc[: states.size].tobytes() == want_s.head_acc.tobytes()
        for name in states:
            assert states[name].tobytes() == want_s[name].tobytes(), name

    def test_one_epoch_calls_the_traced_functions(self, tmp_path, monkeypatch):
        """perfbench attributes training time by wrapping functions at every
        convncf module attribute that names them: one epoch still calls
        train_step once per triple, and the backward functions, the user
        gradient scatter and each conv layer's backward once per triple
        through those attributes; adagrad_step runs once per part."""
        splits = make_splits(tmp_path)
        calls: dict[str, int] = {}
        for owner, name in (
            (training, "train_step"),
            (training, "adagrad_step"),
            (model, "head_backward"),
            (model, "merge_backward"),
            (embeddings, "scatter_user_gradient"),
            (tensor, "conv2x2s2_backward"),
        ):
            fn = getattr(owner, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("convncf") and getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)
        t = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 3, scale=0.1)
        spec = cnn_spec(K=4, C=2, seed=4)
        _run_epochs(spec, t, splits, TrainConfig(epochs=1, seed=9), seed_namespace="train")
        n = splits.train.n_interactions
        assert calls == {
            "train_step": n,
            "adagrad_step": n,  # the head and the three table rows fit one part
            "head_backward": n,
            "merge_backward": n,
            "scatter_user_gradient": n,
            "conv2x2s2_backward": 2 * n,
        }


def watch_evaluate(monkeypatch, name: str) -> tuple[list[str], list[bool]]:
    """Wrap the module-level ``training.evaluate`` and the function ``name``
    at every name convncf looks it up by. Returns the ``which`` of each
    evaluate call and, per call of ``name`` (on any thread), whether it came
    inside an evaluate call."""
    inner = training.evaluate
    splits_called, inside, scored = [], [], []

    def evaluate(*args, **kwargs):
        bound = inspect.signature(inner).bind(*args, **kwargs)
        bound.apply_defaults()
        splits_called.append(bound.arguments["which"])
        inside.append(True)
        try:
            return inner(*args, **kwargs)
        finally:
            inside.pop()

    def guarded(fn):
        def wrapper(*args, **kwargs):
            scored.append(bool(inside))  # a pool thread's block runs while its caller is inside evaluate
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(training, "evaluate", evaluate)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("convncf") and hasattr(module, name):
            monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    return splits_called, scored


class TestTrainLoop:
    @pytest.mark.parametrize("variant", [Variant.MF, Variant.SVDPP])
    def test_scoring_happens_only_in_two_evaluate_calls_per_epoch(self, tmp_path, monkeypatch, variant):
        """perfbench times everything between an epoch's evaluate calls as
        training: train must call training.evaluate exactly twice per epoch,
        val then test, and score no candidate block outside those calls."""
        splits = make_splits(tmp_path)
        splits_called, scored = watch_evaluate(monkeypatch, "_score_block")
        t = init_tables(splits.train.M, splits.train.N, 4, variant, 3, scale=0.1)
        head = new_head(HeadKind.CNN, MergeKind.OUTER, 4, 2, 2, derive_seed(3, "init_head"))
        spec = ModelSpec(variant=variant, merge=MergeKind.OUTER, head=head, K=4)
        train(spec, t, splits, TrainConfig(epochs=3, seed=5))
        assert splits_called == ["val", "test"] * 3
        assert scored and all(scored)

    @pytest.mark.parametrize("variant", [Variant.FISM, Variant.SVDPP])
    def test_history_sums_read_the_split_terms_as_they_are(self, tmp_path, monkeypatch, variant):
        """Training and evaluation sum the split's history terms, already
        distinct and ascending: neither calls history_terms or np.unique,
        per triple or per evaluated user."""
        splits = make_splits(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("history terms recomputed")

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("convncf") and hasattr(module, "history_terms"):
                monkeypatch.setattr(module, "history_terms", refuse)
        monkeypatch.setattr(np, "unique", refuse)
        t = init_tables(splits.train.M, splits.train.N, 4, variant, 3, scale=0.1)
        head = new_head(HeadKind.CNN, MergeKind.OUTER, 4, 2, 2, derive_seed(3, "init_head"))
        spec = ModelSpec(variant=variant, merge=MergeKind.OUTER, head=head, K=4)
        result = train(spec, t, splits, TrainConfig(epochs=2, seed=5))
        record = evaluate_state(spec, result.tables, splits, epoch=3)
        assert record.test.users_evaluated == len(splits.test) > 0

    @pytest.mark.parametrize("variant", [Variant.MF, Variant.FISM])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_evaluate_state_runs_every_forward_inside_its_two_evaluate_calls(
        self, tmp_path, monkeypatch, variant, workers
    ):
        """perfbench times a model state's evaluation as the two calls to
        the module-level training.evaluate: evaluate_state makes exactly
        those calls, val then test, and runs every head forward pass inside
        them, inline or on the scoring pool."""
        monkeypatch.setattr(model, "SCORE_WORKERS", workers)
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", 64)  # several blocks per call
        splits = make_splits(tmp_path)
        splits_called, scored = watch_evaluate(monkeypatch, "head_forward")
        t = init_tables(splits.train.M, splits.train.N, 4, variant, 3, scale=0.1)
        head = new_head(HeadKind.CNN, MergeKind.OUTER, 4, 2, 2, derive_seed(3, "init_head"))
        spec = ModelSpec(variant=variant, merge=MergeKind.OUTER, head=head, K=4)
        evaluate_state(spec, t, splits, epoch=1)
        assert splits_called == ["val", "test"]
        assert len(scored) > 2 and all(scored)

    def test_first_epoch_ignores_lambdas(self, tmp_path):
        splits = make_splits(tmp_path)
        specs = [inner_spec(K=4) for _ in range(2)]
        base = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 1, scale=0.1)
        heavy = copy.deepcopy(base)
        light = copy.deepcopy(base)
        train(specs[0], heavy, splits, TrainConfig(lambda1=50.0, lambda2=50.0, epochs=1, seed=3))
        train(specs[1], light, splits, TrainConfig(lambda1=0.0, lambda2=0.0, epochs=1, seed=3))
        np.testing.assert_array_equal(heavy.P, light.P)
        np.testing.assert_array_equal(heavy.Q, light.Q)

    def test_nan_user_row_names_epoch_and_triple(self, tmp_path):
        splits = make_splits(tmp_path)
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 2, scale=0.1)
        tables.P[5] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match=r"^epoch 1: loss nan at triple \(u, i, j\) = \(5, "):
            train(inner_spec(K=4), tables, splits, TrainConfig(epochs=2, seed=5))

    def test_nonfinite_parameter_names_epoch_and_section(self, tmp_path):
        """Training never reads the history row of an item that is in no
        user's train history, so an infinite entry there leaves every loss
        finite; the end-of-epoch sweep still names the section."""
        splits = make_splits(tmp_path, N=40)  # item27 is only ever a test item
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.FISM, 3, scale=0.1)
        tables.Qp[splits.train.item_ids.index("item27"), 1] = np.inf
        spec = ModelSpec(variant=Variant.FISM, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        with pytest.raises(NonFiniteError, match="^epoch 1: section Qp holds non-finite values$"):
            train(spec, tables, splits, TrainConfig(epochs=2, seed=8))

    def test_loss_decreases_on_learnable_fixture(self, tmp_path):
        splits = make_splits(tmp_path)
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 2, scale=0.1)
        res = train(inner_spec(K=4), tables, splits, TrainConfig(epochs=6, seed=5, lambda1=0, lambda2=0))
        losses = [r.mean_loss for r in res.history]
        assert losses[-1] < losses[0]
        assert all(r.val.users_evaluated == splits.train.M for r in res.history)

    def test_batch_size_changes_no_result(self, tmp_path):
        """Steps stay per triple and the negatives of a minibatch are the
        ones drawn one at a time, so batch_size only slices the epoch."""
        splits = make_splits(tmp_path)
        base = init_tables(splits.train.M, splits.train.N, 4, Variant.SVDPP, 2, scale=0.1)
        runs = []
        for batch_size in (1, 7, 512):
            spec = ModelSpec(variant=Variant.SVDPP, merge=MergeKind.OUTER, head=cnn_spec(K=4, C=2).head, K=4)
            res = train(spec, copy.deepcopy(base), splits, TrainConfig(epochs=2, seed=4, batch_size=batch_size))
            runs.append(([r.mean_loss for r in res.history], {n: a.tobytes() for n, a in section_arrays(spec, res.tables).items()}))
        assert runs[0] == runs[1] == runs[2]

    def test_identical_seeds_identical_runs(self, tmp_path):
        splits = make_splits(tmp_path)

        def run():
            tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 9, scale=0.1)
            return train(inner_spec(K=4), tables, splits, TrainConfig(epochs=3, seed=11))

        a, b = run(), run()
        assert [r.mean_loss for r in a.history] == [r.mean_loss for r in b.history]
        assert a.tables.P.tobytes() == b.tables.P.tobytes()
        assert a.tables.Q.tobytes() == b.tables.Q.tobytes()

    def test_zero_lr_net_freezes_head_bitwise(self, tmp_path):
        splits = make_splits(tmp_path)
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 4, scale=0.1)
        spec = cnn_spec(K=4, C=2, seed=5)
        frozen = {name: arr.copy() for name, arr in
                  (("w", spec.head.w),) + tuple((f"k{l}", spec.head.layers[l].kernel) for l in range(2))}
        cfg = TrainConfig(epochs=2, seed=6)
        cfg.lr_net = 0.0  # validate(), run by train(), forbids this; the loop itself must cope
        P_before = tables.P.copy()
        _run_epochs(spec, tables, splits, cfg, seed_namespace="train")
        assert spec.head.w.tobytes() == frozen["w"].tobytes()
        assert spec.head.layers[0].kernel.tobytes() == frozen["k0"].tobytes()
        assert spec.head.layers[1].kernel.tobytes() == frozen["k1"].tobytes()
        assert tables.P.tobytes() != P_before.tobytes()  # embeddings still move

    def test_fism_history_comes_from_train_split(self, tmp_path):
        splits = make_splits(tmp_path)
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.FISM, 3, scale=0.1)
        spec = ModelSpec(variant=Variant.FISM, merge=MergeKind.INNER, head=IdentityHead(), K=4)
        res = train(spec, tables, splits, TrainConfig(epochs=2, seed=8))
        assert len(res.history) == 2
        assert np.isfinite([r.mean_loss for r in res.history]).all()


class TestPretrain:
    def test_zero_epochs_returns_untouched_init(self, tmp_path):
        splits = make_splits(tmp_path)
        cfg = TrainConfig(epochs_pretrain=0, seed=13)
        res = pretrain(Variant.MF, splits, cfg, K=4)
        tables, records = res.tables, res.history
        fresh = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, derive_seed(13, "init"))
        assert records == []
        np.testing.assert_array_equal(tables.P, fresh.P)
        np.testing.assert_array_equal(tables.Q, fresh.Q)

    def test_pretrain_uses_own_rng_namespace(self, tmp_path):
        """A pretrain run and a train run with the same seed must not share
        shuffle streams, or warm starts would correlate with the main run."""
        splits = make_splits(tmp_path)
        cfg = TrainConfig(epochs_pretrain=2, epochs=2, seed=21, lambda1=0, lambda2=0)
        pre_records = pretrain(Variant.MF, splits, cfg, K=4).history
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, derive_seed(21, "init"))
        main = train(inner_spec(K=4), tables, splits, TrainConfig(epochs=2, seed=21, lambda1=1e-6, lambda2=1e-6))
        # same init, same epochs, but different sampling order => different losses
        assert pre_records[0].mean_loss != main.history[0].mean_loss

    def test_pretrain_improves_over_init(self, tmp_path):
        splits = make_splits(tmp_path)
        cfg = TrainConfig(epochs_pretrain=8, seed=17)
        records = pretrain(Variant.MF, splits, cfg, K=4).history
        assert len(records) == 8
        assert records[-1].mean_loss < records[0].mean_loss


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"lr_embed": 0.0},
            {"lr_net": -1.0},
            {"lambda3": -0.1},
            {"batch_size": 0},
            {"epochs": 0},
            {"epochs_pretrain": -1},
            {"adagrad_epsilon": 0.0},
            {"lambda_pretrain": -1.0},
            {"lr_embed": math.nan},
            {"lr_net": math.inf},
            {"lambda3": math.nan},
            {"adagrad_epsilon": math.inf},
            {"lambda_pretrain": math.nan},
        ],
    )
    def test_rejects(self, kw):
        (key,) = kw
        with pytest.raises(ValueError, match=f"^key {key}: "):
            TrainConfig(**kw).validate()

    def test_defaults_pass(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "kw,message",
        [
            ({"batch_size": 0}, "key batch_size: must be >= 1"),
            ({"lr_embed": math.nan}, "key lr_embed: must be finite, got nan"),
        ],
        ids=["batch_size", "lr_embed_nan"],
    )
    def test_train_and_pretrain_validate_first(self, tmp_path, kw, message):
        """Both entry points check their config before any step, so a NaN
        rate never reaches the loss and a bad batch size never reaches the
        shuffle."""
        splits = make_splits(tmp_path)
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 2, scale=0.1)
        P_before = tables.P.copy()
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(inner_spec(K=4), tables, splits, TrainConfig(epochs=1, seed=5, **kw))
        with pytest.raises(ValueError, match=f"^{message}$"):
            pretrain(Variant.MF, splits, TrainConfig(epochs_pretrain=1, seed=5, **kw), K=4)
        assert tables.P.tobytes() == P_before.tobytes()


class TestMetricsCsv:
    def test_header_and_row_layout(self, tmp_path):
        splits = make_splits(tmp_path)
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 2, scale=0.1)
        res = train(inner_spec(K=4), tables, splits, TrainConfig(epochs=2, seed=4))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(res.history, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER == "epoch,split,hr@5,hr@10,hr@20,ndcg@5,ndcg@10,ndcg@20,loss"
        assert len(lines) == 1 + 2 * 2  # header + (val, test) per epoch
        first = lines[1].split(",")
        assert first[:2] == ["1", "val"] and lines[2].split(",")[:2] == ["1", "test"]
        # val and test rows carry the same epoch train loss
        assert lines[1].split(",")[-1] == lines[2].split(",")[-1]
        # floats are written with round-trip precision
        assert float(first[-1]) == res.history[0].mean_loss

    def test_identical_bytes_for_identical_histories(self, tmp_path):
        splits = make_splits(tmp_path)
        tables = init_tables(splits.train.M, splits.train.N, 4, Variant.MF, 2, scale=0.1)
        res = train(inner_spec(K=4), tables, splits, TrainConfig(epochs=1, seed=4))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(res.history, str(a))
        write_metrics_csv(res.history, str(b))
        assert a.read_bytes() == b.read_bytes()
