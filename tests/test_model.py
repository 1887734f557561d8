import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from convncf import model
from convncf.data import derive_seed
from convncf.embeddings import EmbeddingTables, Variant, history_terms, init_tables, user_rows
from convncf.gradcheck import finite_diff_check
from convncf.model import (
    SCORE_BLOCK_BYTES,
    ConfigurationError,
    ConvStack,
    ConvWork,
    FormatError,
    HeadKind,
    IdentityHead,
    LinearHead,
    MergeKind,
    MlpHead,
    ModelSpec,
    convncf_backward,
    convncf_forward,
    head_forward,
    head_sections,
    head_views,
    init_conv_stack,
    init_mlp_head,
    load_checkpoint,
    merge,
    merge_backward,
    merged_width,
    new_head,
    param_count,
    predict_batch,
    save_checkpoint,
    section_arrays,
    tower_work,
)
from convncf.tensor import conv2x2s2_forward, to_quadtree
from convncf.training import AdagradState

from _oracles import numeric_grad_full


def spec_for(variant, merge_kind, head_kind, K=8, C=4, mlp_layers=2, seed=5, alpha=0.5):
    head = new_head(head_kind, merge_kind, K, C, mlp_layers, derive_seed(seed, "init_head"))
    return ModelSpec(variant=variant, merge=merge_kind, head=head, K=K, alpha=alpha)


def add_section(path, name, arr):
    """Append one section to a checkpoint file: a directory line and its
    payload after the last one."""
    blob = open(path, "rb").read()
    cut = blob.index(b"\n\n") + 1  # the blank line that ends the directory
    payload = blob[cut + 1 :]
    line = f"{name} {arr.ndim}" + "".join(f" {d}" for d in arr.shape) + f" {len(payload)}\n"
    open(path, "wb").write(blob[:cut] + line.encode() + b"\n" + payload + arr.astype("<f8").tobytes())


ALL_COMBOS = [
    (Variant.MF, MergeKind.OUTER, HeadKind.CNN),
    (Variant.FISM, MergeKind.OUTER, HeadKind.CNN),
    (Variant.SVDPP, MergeKind.OUTER, HeadKind.CNN),
    (Variant.MF, MergeKind.OUTER, HeadKind.MLP),
    (Variant.MF, MergeKind.ELEMENTWISE, HeadKind.LINEAR),
    (Variant.MF, MergeKind.ELEMENTWISE, HeadKind.MLP),
    (Variant.MF, MergeKind.CONCAT, HeadKind.MLP),
    (Variant.MF, MergeKind.INNER, HeadKind.IDENTITY),
]


class TestMerge:
    def test_values(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, -4.0]])
        np.testing.assert_array_equal(merge(MergeKind.ELEMENTWISE, a, b), [[3.0, -8.0]])
        np.testing.assert_array_equal(merge(MergeKind.CONCAT, a, b), [[1.0, 2.0, 3.0, -4.0]])
        np.testing.assert_array_equal(merge(MergeKind.OUTER, a, b), [[[3.0, -4.0], [6.0, -8.0]]])
        np.testing.assert_array_equal(merge(MergeKind.INNER, a, b), [-5.0])

    @pytest.mark.parametrize("kind", list(MergeKind))
    def test_adjoint_matches_finite_difference(self, kind):
        rng = np.random.default_rng(17)
        fU, fI = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        d_merged = rng.normal(size=merge(kind, fU, fI).shape)

        def objective(concat_vec):
            m = merge(kind, concat_vec[None, :5], concat_vec[None, 5:])
            return float(np.sum(m * d_merged))

        d_fU, d_fI = merge_backward(kind, fU, fI, d_merged)
        got = np.concatenate([d_fU[0], d_fI[0]])
        want = numeric_grad_full(objective, np.concatenate([fU[0], fI[0]]))
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)


class TestModelSpec:
    def test_every_allowed_combination_constructs(self):
        for variant, mk, hk in ALL_COMBOS:
            spec = spec_for(variant, mk, hk)
            assert spec.head_kind is hk

    def test_rejects_cnn_off_outer(self):
        stack = init_conv_stack(8, 4, 0)
        with pytest.raises(ConfigurationError):
            ModelSpec(variant=Variant.MF, merge=MergeKind.ELEMENTWISE, head=stack, K=8)

    def test_rejects_identity_off_inner(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=IdentityHead(), K=8)

    def test_rejects_depth_k_mismatch(self):
        stack = init_conv_stack(8, 4, 0)  # depth 3 covers K=8 only
        with pytest.raises(ConfigurationError):
            ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=stack, K=16)

    def test_rejects_mlp_width_mismatch(self):
        head = init_mlp_head(16, 2, 0)
        with pytest.raises(ConfigurationError):
            ModelSpec(variant=Variant.MF, merge=MergeKind.CONCAT, head=head, K=4)

    def test_rejects_unknown_fism_norm(self):
        with pytest.raises(ConfigurationError, match="unknown fism_norm 'bogus_set'"):
            ModelSpec(
                variant=Variant.FISM, merge=MergeKind.INNER, head=IdentityHead(), K=8, fism_norm="bogus_set"
            )

    def test_rejects_linear_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(
                variant=Variant.MF, merge=MergeKind.ELEMENTWISE, head=LinearHead(w=np.ones(3)), K=8
            )

    def test_rejects_conv_channel_mismatch(self):
        stack = init_conv_stack(8, 4, 0)
        stack.layers[1].kernel = np.zeros((2, 2, 3, 4))
        with pytest.raises(ConfigurationError, match="conv layer 2"):
            ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=stack, K=8)

    @pytest.mark.parametrize("shape", [(3,), (1,)])
    def test_rejects_non_scalar_conv_bias(self, shape):
        stack = init_conv_stack(8, 4, 0)
        stack.layers[0].bias = np.zeros(shape)
        with pytest.raises(ConfigurationError, match=re.escape(f"conv layer 1 bias shape {shape}, expected ()")):
            ModelSpec(variant=Variant.MF, merge=MergeKind.OUTER, head=stack, K=8)

    def test_rejects_mlp_layers_that_do_not_chain(self):
        head = init_mlp_head(16, 2, 0)
        head.layers[1].W = np.zeros((4, 6))
        with pytest.raises(ConfigurationError, match="does not chain"):
            ModelSpec(variant=Variant.MF, merge=MergeKind.CONCAT, head=head, K=8)

    def test_merged_width(self):
        assert merged_width(MergeKind.OUTER, 8) == 64
        assert merged_width(MergeKind.CONCAT, 8) == 16
        assert merged_width(MergeKind.ELEMENTWISE, 8) == 8


class TestConvHead:
    def test_forward_matches_manual_composition(self):
        """The tower score equals explicitly chaining the layer primitives."""
        rng = np.random.default_rng(23)
        stack = init_conv_stack(8, 4, derive_seed(1, "init_head"))
        E = rng.normal(size=(1, 8, 8))
        acts, y = convncf_forward(stack, E, ConvWork(stack, 1))
        x = to_quadtree(E.reshape(1, 8, 8, 1))
        assert len(acts) == stack.depth + 1
        np.testing.assert_array_equal(acts[0], x)
        for l, layer in enumerate(stack.layers, start=1):
            x = conv2x2s2_forward(x, layer.kernel, float(layer.bias), np.empty((1, x.shape[1] // 4, 4)))
            np.testing.assert_array_equal(acts[l], x)
        assert y.shape == (1,)
        assert y[0] == pytest.approx(float(stack.w @ x.reshape(4)), abs=1e-12)

    def test_backward_matches_finite_difference_on_E(self):
        rng = np.random.default_rng(29)
        stack = init_conv_stack(8, 2, derive_seed(2, "init_head"))
        E = rng.normal(size=(1, 8, 8)) + 0.5
        work = ConvWork(stack, 1)
        acts, _ = convncf_forward(stack, E, work)
        d_E = convncf_backward(stack, acts, np.ones(1), head_views(stack), work)

        def objective(flat):
            _, y = convncf_forward(stack, flat.reshape(1, 8, 8), ConvWork(stack, 1))
            return float(y[0])

        want = numeric_grad_full(objective, E.reshape(-1)).reshape(1, 8, 8)
        np.testing.assert_allclose(d_E, want, rtol=1e-6, atol=1e-9)

    def test_head_grad_keys_cover_sections(self):
        stack = init_conv_stack(8, 2, 0)
        work = ConvWork(stack, 1)
        acts, _ = convncf_forward(stack, np.random.default_rng(0).normal(size=(1, 8, 8)), work)
        grads = head_views(stack)
        convncf_backward(stack, acts, np.ones(1), grads, work)
        assert set(grads) == {name for name, _ in head_sections(stack)}

    def test_chunked_forward_refuses_backward(self):
        """A forward in 3-row chunks keeps only the last chunk's layer-1
        outputs, so a backward over its acts raises instead of computing
        wrong kernel gradients."""
        stack = init_conv_stack(8, 2, 0)
        work = ConvWork(stack, 7, chunk=3)
        acts, _ = convncf_forward(stack, np.random.default_rng(0).normal(size=(7, 8, 8)), work)
        assert acts[1].shape[0] == 3
        with pytest.raises(ValueError, match="layer 1 holds 3 of 7 rows"):
            convncf_backward(stack, acts, np.ones(7), head_views(stack), work)


class TestGmfReduction:
    def test_ones_weights_equal_inner_product(self):
        """GMF with all-ones projection is exactly the dot product."""
        t = init_tables(4, 6, 5, Variant.MF, 3, scale=1.0)
        gmf = ModelSpec(
            variant=Variant.MF,
            merge=MergeKind.ELEMENTWISE,
            head=new_head(HeadKind.LINEAR, MergeKind.ELEMENTWISE, 5, 1, 1, 0),
            K=5,
        )
        inner = ModelSpec(variant=Variant.MF, merge=MergeKind.INNER, head=IdentityHead(), K=5)
        items = np.arange(6)
        for u in range(4):
            np.testing.assert_allclose(
                predict_batch(gmf, t, u, items), predict_batch(inner, t, u, items), rtol=0, atol=1e-12
            )


def largest_statement_allocation(fn, *args) -> int:
    """Run ``fn(*args)`` under tracemalloc and return the most that any one
    Python statement it runs, at any call depth, added to the traced memory
    at its peak over what was live when the statement began. An array
    allocated anywhere in the call counts in full in its statement, so
    every array ``fn`` allocates is at most this large."""
    worst, last = 0, 0

    def trace(frame, event, arg):
        nonlocal worst, last
        current, peak = tracemalloc.get_traced_memory()
        worst = max(worst, peak - last)
        tracemalloc.reset_peak()
        last = current
        return trace

    tracemalloc.start()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return worst


def assert_rows_score_alone(spec, tables, u, items, history=()):
    """Each row of predict_batch equals the training forward of that one
    (user, item) pair, a batch of one, bit for bit. An MLP head scores a
    block with one matrix product per layer, which agrees with the pair
    alone to rounding only."""
    single = []
    terms = history_terms(history)
    for i in items:
        fU = user_rows(spec, tables, [u], terms[None], (int(i),))
        _, y = head_forward(spec, merge(spec.merge, fU, tables.Q[[i]]), tower_work(spec, 1))
        single.append(y)
    single = np.concatenate(single)
    batch = predict_batch(spec, tables, u, items, history)
    if isinstance(spec.head, MlpHead):
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)
    else:
        assert batch.tobytes() == single.tobytes()


class TestPredictBatch:
    @pytest.mark.parametrize("variant,mk,hk", ALL_COMBOS)
    def test_matches_predict(self, variant, mk, hk):
        t = init_tables(5, 12, 8, variant, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(variant, mk, hk)
        assert_rows_score_alone(spec, t, 2, np.array([1, 2, 4, 6, 7, 8, 9, 10, 11]), [0, 3, 5])

    @pytest.mark.parametrize("variant,mk,hk", ALL_COMBOS)
    def test_no_candidates(self, variant, mk, hk):
        t = init_tables(5, 12, 8, variant, derive_seed(7, "init"), scale=1.0)
        scores = predict_batch(spec_for(variant, mk, hk), t, 2, np.array([], dtype=np.int64), [0])
        assert scores.shape == (0,)

    @pytest.mark.parametrize("variant", [Variant.MF, Variant.SVDPP])
    @pytest.mark.parametrize("u", [-1, 5])
    def test_bad_user_index(self, variant, u):
        t = init_tables(5, 12, 8, variant, derive_seed(7, "init"), scale=1.0)
        with pytest.raises(IndexError, match="user index"):
            predict_batch(spec_for(variant, MergeKind.OUTER, HeadKind.CNN), t, u, np.array([1, 2]))

    @pytest.mark.parametrize("variant", [Variant.MF, Variant.FISM, Variant.SVDPP])
    @pytest.mark.parametrize("u", [1.5, True, np.float64(1.0), np.True_], ids=["float", "bool", "np_float", "np_bool"])
    def test_non_integer_user_is_refused(self, variant, u):
        """A float would score as the user it truncates to and a boolean as
        user 0 or 1, also for FISM, which reads no user index."""
        t = init_tables(5, 12, 8, variant, derive_seed(7, "init"), scale=1.0)
        with pytest.raises(IndexError, match="^user index must be an integer"):
            predict_batch(spec_for(variant, MergeKind.OUTER, HeadKind.CNN), t, u, np.array([1, 2]), [0, 3])

    def test_numpy_integer_user_scores_as_int(self):
        t = init_tables(5, 12, 8, Variant.MF, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN)
        want = predict_batch(spec, t, 2, np.array([1, 2]))
        assert predict_batch(spec, t, np.int32(2), np.array([1, 2])).tobytes() == want.tobytes()

    def test_fism_reads_no_user_index(self):
        """FISM has no user table: its scores depend on the history only."""
        t = init_tables(5, 12, 8, Variant.FISM, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.FISM, MergeKind.OUTER, HeadKind.CNN)
        scores = [predict_batch(spec, t, u, np.array([1, 2]), [0, 3]).tobytes() for u in (0, -1, 5)]
        assert scores[0] == scores[1] == scores[2]

    @pytest.mark.parametrize("variant", [Variant.FISM, Variant.SVDPP])
    @pytest.mark.parametrize("item", [-1, 12])
    def test_bad_history_index(self, variant, item):
        """A negative history item would wrap to the last Qp row unchecked."""
        t = init_tables(5, 12, 8, variant, derive_seed(7, "init"), scale=1.0)
        with pytest.raises(IndexError, match="history item"):
            predict_batch(spec_for(variant, MergeKind.OUTER, HeadKind.CNN), t, 0, np.array([1, 2]), [3, item])

    @pytest.mark.parametrize("variant", [Variant.MF, Variant.FISM, Variant.SVDPP])
    @pytest.mark.parametrize("items,named", [([-1, 4], -1), ([0, 5, 2], 5), ([-3, 7], -3)])
    def test_bad_item_index(self, variant, items, named):
        """A negative candidate would wrap to the last Q row unchecked: on a
        5-item table, -1 would score as item 4."""
        t = init_tables(3, 5, 8, variant, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(variant, MergeKind.OUTER, HeadKind.CNN)
        with pytest.raises(IndexError, match=rf"candidate item index {named} out of range \[0, 5\)"):
            predict_batch(spec, t, 0, np.array(items), [1])

    @pytest.mark.parametrize(
        "items,history,named",
        [
            ([1.7, 2.2], [0], "items"),
            ([True, False], [0], "items"),
            (np.array([[1, 2]]), [0], "items"),
            ([1, 2], [2.9, 1.2], "history"),
            ([1, 2], [[1, 2]], "history"),
        ],
        ids=["float_items", "bool_items", "2d_items", "float_history", "2d_history"],
    )
    def test_rejects_non_integer_or_non_1d_indices(self, items, history, named):
        """Floats would be truncated, booleans read as 0 and 1, a 2-D
        candidate array would fail deep in the merge and a 2-D history would
        be flattened; each is refused naming its argument."""
        t = init_tables(3, 5, 8, Variant.FISM, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.FISM, MergeKind.OUTER, HeadKind.CNN)
        with pytest.raises(IndexError, match=rf"^{named} must be a 1-D array of integer indices"):
            predict_batch(spec, t, 0, items, history)

    def test_empty_list_of_candidates(self):
        t = init_tables(3, 5, 8, Variant.FISM, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.FISM, MergeKind.OUTER, HeadKind.CNN)
        assert predict_batch(spec, t, 0, [], []).shape == (0,)

    def test_empty_candidates(self):
        t = init_tables(3, 5, 8, Variant.MF, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN)
        assert predict_batch(spec, t, 0, np.array([], dtype=np.int64)).shape == (0,)

    def test_flagship_rows_score_alone_across_blocks(self):
        t = init_tables(3, 150, 64, Variant.MF, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=64, C=32)
        items = np.arange(150)
        assert len(items) > 2 * SCORE_BLOCK_BYTES // (8 * 32 * 32 * 32)
        assert_rows_score_alone(spec, t, 1, items)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flagship_rows_score_alone_across_chunks(self, monkeypatch, workers):
        """With 3-row tower chunks every 16-row flagship block runs as five
        chunks and a short one, and the last block (13 rows) ends on a
        short chunk too; every row still equals that row scored alone,
        inline and on the pool."""
        monkeypatch.setattr(model, "TOWER_CHUNK_BYTES", 3 * 8 * 32 * 32 * 32)
        monkeypatch.setattr(model, "SCORE_WORKERS", workers)
        t = init_tables(3, 45, 64, Variant.MF, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=64, C=32)
        assert model.chunk_rows(spec) == 3 and model.block_rows(spec) == 16 and 45 % 16 % 3
        assert_rows_score_alone(spec, t, 1, np.arange(45))

    def test_flagship_block_allocates_no_layer_array(self):
        """After a warm-up block on the same thread, scoring one 16-row
        flagship block allocates no array of 256 KiB or more: the tower runs
        in chunks through the thread's buffers, where a whole block's
        layer-1 activations would be 4 MiB."""
        t = init_tables(3, 40, 64, Variant.MF, derive_seed(7, "init"), scale=0.13)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=64, C=32)
        FU = t.P[:1]
        model._score_block(spec, FU, t.Q, np.arange(16))
        largest = largest_statement_allocation(model._score_block, spec, FU, t.Q, np.arange(16, 32))
        assert largest < 256 * 2**10, f"{largest} B in one statement"

    def test_mlp_over_outer_rows_score_alone_across_blocks(self):
        t = init_tables(3, 600, 64, Variant.MF, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.MLP, K=64, mlp_layers=1)
        items = np.arange(600)
        assert len(items) > 2 * model.block_rows(spec)
        assert_rows_score_alone(spec, t, 1, items)

    def test_block_rows_cap(self):
        """The byte budget gives the flagship tower 16-row blocks; at desk
        size it would allow 16,384 rows, and the row cap binds instead."""
        flagship = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=64, C=32)
        desk = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=4, C=8)
        assert model.block_rows(flagship) == SCORE_BLOCK_BYTES // (8 * 32 * 32 * 32) == 16
        assert SCORE_BLOCK_BYTES // (8 * 2 * 2 * 8) == 16384
        assert model.block_rows(desk) == model.SCORE_BLOCK_ROWS == 1024

    def test_pooled_scores_equal_inline(self, monkeypatch):
        """Blocks scored on the pool equal the same blocks scored inline, bit
        for bit, with a last block shorter than the rest."""
        t = init_tables(3, 150, 64, Variant.MF, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=64, C=32)
        items = np.arange(3, 150)
        rows = model.block_rows(spec)
        assert len(items) > 2 * rows and len(items) % rows
        monkeypatch.setattr(model, "SCORE_WORKERS", 2)  # pooled even on one CPU
        pooled = predict_batch(spec, t, 1, items)
        monkeypatch.setattr(model, "SCORE_WORKERS", 1)
        inline = predict_batch(spec, t, 1, items)
        assert pooled.tobytes() == inline.tobytes()

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        """More callers than cores, each splitting its candidates over the
        one score pool, all get the inline scores."""
        t = init_tables(3, 100, 64, Variant.MF, derive_seed(7, "init"), scale=1.0)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=64, C=32)
        items = np.arange(100)
        monkeypatch.setattr(model, "SCORE_WORKERS", 1)
        inline = predict_batch(spec, t, 1, items).tobytes()
        monkeypatch.setattr(model, "SCORE_WORKERS", 2)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                futures = [callers.submit(predict_batch, spec, t, 1, items) for _ in range(12)]
                assert all(f.result(timeout=60).tobytes() == inline for f in futures)
        finally:
            sys.setswitchinterval(switch)

    def test_mlp_over_outer_flattens_row_major(self):
        """Flattening convention: entry (k1, k2) of the map lands at k1*K+k2."""
        t = init_tables(3, 6, 4, Variant.MF, 11, scale=1.0)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.MLP, K=4, mlp_layers=1)
        E = np.outer(t.P[0], t.Q[1])
        x = E.reshape(-1)
        layer = spec.head.layers[0]
        manual = float(spec.head.w @ np.maximum(layer.W @ x + layer.b, 0.0))
        assert predict_batch(spec, t, 0, [1])[0] == pytest.approx(manual, abs=1e-12)


class TestParamCount:
    def test_flagship_head_sizes(self):
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=64, C=32)
        pc = param_count(spec)
        assert pc.head_total == 20646
        assert dict(pc.head_sections)["conv.1.kernel"] == 128
        assert dict(pc.head_sections)["conv.6.kernel"] == 4096

    def test_wide_mlp_first_layer(self):
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.MLP, K=64, mlp_layers=1)
        pc = param_count(spec)
        assert dict(pc.head_sections)["mlp.1.W"] == 4096 * 2048 == 8388608

    def test_small_tower(self):
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN, K=8, C=4)
        assert param_count(spec).head_total == 151

    def test_embedding_side(self):
        spec = spec_for(Variant.SVDPP, MergeKind.OUTER, HeadKind.CNN, K=8, C=4)
        pc = param_count(spec, M=10, N=20)
        assert dict(pc.embedding_sections) == {"P": 80, "Q": 160, "Qp": 160}
        assert pc.embedding_total == 400
        pc = param_count(spec_for(Variant.FISM, MergeKind.OUTER, HeadKind.CNN, K=8, C=4), M=10, N=20)
        assert dict(pc.embedding_sections) == {"Q": 160, "Qp": 160}
        assert pc.embedding_total == 320

    def test_identity_head_is_empty(self):
        spec = spec_for(Variant.MF, MergeKind.INNER, HeadKind.IDENTITY)
        assert param_count(spec).head_total == 0


class TestCheckpoint:
    def roundtrip(self, tmp_path, variant, mk, hk, **kw):
        t = init_tables(4, 7, 8, variant, derive_seed(13, "init"), scale=1.0)
        spec = spec_for(variant, mk, hk, alpha=0.4, **kw)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(spec, t, path)
        spec2, t2 = load_checkpoint(path)
        return spec, t, spec2, t2, path

    @pytest.mark.parametrize("variant,mk,hk", ALL_COMBOS)
    def test_bit_exact_roundtrip(self, tmp_path, variant, mk, hk):
        spec, t, spec2, t2, _ = self.roundtrip(tmp_path, variant, mk, hk)
        assert (spec2.variant, spec2.merge, spec2.K) == (spec.variant, spec.merge, spec.K)
        assert spec2.alpha == spec.alpha
        np.testing.assert_array_equal(t.P, t2.P)
        np.testing.assert_array_equal(t.Q, t2.Q)
        for (n1, a1), (n2, a2) in zip(head_sections(spec.head), head_sections(spec2.head)):
            assert n1 == n2
            assert a1.tobytes() == a2.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        t = init_tables(3, 5, 8, Variant.MF, 1)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN)
        save_checkpoint(spec, t, str(tmp_path / "a.ckpt"))
        save_checkpoint(spec, t, str(tmp_path / "b.ckpt"))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_loaded_arrays_are_writable(self, tmp_path):
        _, _, _, t2, _ = self.roundtrip(tmp_path, Variant.MF, MergeKind.INNER, HeadKind.IDENTITY)
        t2.P[0, 0] = 42.0  # training resumes in place on loaded tables
        assert t2.P[0, 0] == 42.0

    def test_bad_magic(self, tmp_path):
        *_, path = self.roundtrip(tmp_path, Variant.MF, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        open(path, "wb").write(b"XXXXX" + blob[5:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        *_, path = self.roundtrip(tmp_path, Variant.MF, MergeKind.OUTER, HeadKind.CNN)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-9])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_missing_section(self, tmp_path):
        *_, path = self.roundtrip(tmp_path, Variant.MF, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        # rename section Q in the directory; the loader must notice its absence
        open(path, "wb").write(blob.replace(b"\nQ 2 ", b"\nZ 2 ", 1))
        with pytest.raises(FormatError, match="Q missing"):
            load_checkpoint(path)

    def test_section_listed_twice(self, tmp_path):
        """A second P line would otherwise replace the first."""
        *_, path = self.roundtrip(tmp_path, Variant.MF, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob.replace(b"\nQ 2 ", b"\nP 2 ", 1))
        with pytest.raises(FormatError, match="^section P listed twice$"):
            load_checkpoint(path)

    def test_sections_must_tile_the_payload(self, tmp_path):
        """Q pointed back at P's bytes: every section must start where the
        previous one ends."""
        *_, path = self.roundtrip(tmp_path, Variant.MF, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        line = re.search(rb"\nQ 2 (\d+) (\d+) (\d+)\n", blob)
        start = int(line.group(3))
        assert start > 0
        open(path, "wb").write(blob.replace(line.group(0), b"\nQ 2 %s %s 0\n" % line.group(1, 2), 1))
        with pytest.raises(FormatError, match=f"^section Q starts at byte 0, expected {start}$"):
            load_checkpoint(path)

    def test_bytes_after_the_last_section(self, tmp_path):
        *_, path = self.roundtrip(tmp_path, Variant.MF, MergeKind.OUTER, HeadKind.CNN)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(FormatError, match="^8 bytes after the last section$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,value", [("conv.2.kernel", np.inf), ("w", -np.inf), ("conv.1.bias", np.nan)])
    def test_nonfinite_section(self, tmp_path, name, value):
        t = init_tables(3, 5, 8, Variant.MF, 1)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN)
        dict(head_sections(spec.head))[name].flat[0] = value
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(spec, t, path)
        with pytest.raises(FormatError, match=rf"^section {re.escape(name)} holds non-finite values$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("size", [3, 1])
    def test_non_scalar_conv_bias(self, tmp_path, size):
        t = init_tables(3, 5, 8, Variant.MF, 1)
        spec = spec_for(Variant.MF, MergeKind.OUTER, HeadKind.CNN)
        spec.head.layers[0].bias = np.zeros(size)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(spec, t, path)
        assert f"\nconv.1.bias 1 {size} ".encode() in open(path, "rb").read()
        with pytest.raises(FormatError, match=re.escape(f"inconsistent checkpoint: conv layer 1 bias shape ({size},)")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("alpha=0.4", "alpha=nan"),
            ("alpha=0.4", "alpha=inf"),
            ("alpha=0.4", "alpha=-1.0"),
            ("fism_norm=excluded_set", "fism_norm=bogus_set"),
        ],
    )
    def test_bad_descriptor_field(self, tmp_path, field, bad):
        *_, path = self.roundtrip(tmp_path, Variant.FISM, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        assert blob.count(field.encode()) == 1
        open(path, "wb").write(blob.replace(field.encode(), bad.encode()))
        with pytest.raises(FormatError, match=re.escape(bad.split("=")[0])):
            load_checkpoint(path)

    def test_missing_qp_for_history_variant(self, tmp_path):
        *_, path = self.roundtrip(tmp_path, Variant.MF, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob.replace(b"variant=mf", b"variant=fism", 1))
        with pytest.raises(FormatError, match="Qp"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "variant,old,new",
        [
            (Variant.MF, b",K=8,", b",K=4,"),
            (Variant.FISM, b"\nQp 2 7 8 ", b"\nQp 2 56 1 "),  # Qp alone: width 1
            (Variant.FISM, b"\nQp 2 7 8 ", b"\nQp 1 56 "),  # Qp alone: rank 1
        ],
        ids=["k", "qp-width1", "qp-rank1"],
    )
    def test_table_width_must_match_k(self, tmp_path, variant, old, new):
        *_, path = self.roundtrip(tmp_path, variant, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        assert old in blob
        open(path, "wb").write(blob.replace(old, new, 1))
        with pytest.raises(FormatError, match="width"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "variant,mk,hk,kw,name",
        [
            (Variant.MF, MergeKind.INNER, HeadKind.IDENTITY, {}, "Qp"),
            (Variant.MF, MergeKind.INNER, HeadKind.IDENTITY, {}, "w"),
            (Variant.MF, MergeKind.OUTER, HeadKind.MLP, {"mlp_layers": 1}, "mlp.2.b"),
            (Variant.FISM, MergeKind.OUTER, HeadKind.CNN, {}, "foo"),
        ],
        ids=["mf-qp", "identity-w", "lone-mlp-bias", "foo"],
    )
    def test_stray_section(self, tmp_path, variant, mk, hk, kw, name):
        """A section the variant's tables and the head do not own would
        load unread; the loader names it instead."""
        *_, path = self.roundtrip(tmp_path, variant, mk, hk, **kw)
        add_section(path, name, np.zeros((7, 8)))
        with pytest.raises(FormatError, match=rf"^unexpected section {re.escape(name)} for variant={variant.value}, head={hk.value}$"):
            load_checkpoint(path)

    def test_fism_file_with_p_is_rejected(self, tmp_path):
        """FISM checkpoints once carried an unread P table, in the SVD++
        layout (P, Q, Qp); such a file fails naming P."""
        *_, path = self.roundtrip(tmp_path, Variant.SVDPP, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob.replace(b"variant=svdpp", b"variant=fism", 1))
        with pytest.raises(FormatError, match="^unexpected section P for variant=fism, head=identity$"):
            load_checkpoint(path)

    def test_garbled_directory_line(self, tmp_path):
        *_, path = self.roundtrip(tmp_path, Variant.MF, MergeKind.INNER, HeadKind.IDENTITY)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob.replace(b"\nP 2 ", b"\nP two ", 1))
        with pytest.raises(FormatError, match="directory"):
            load_checkpoint(path)


class TestVariantTables:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_every_view_names_the_declared_tables(self, tmp_path, variant):
        """Allocation, section_arrays, the checkpoint directory, param_count,
        the Adagrad accumulators and the gradcheck report all list exactly
        the tables ``Variant.tables`` declares, in its order; each table
        holds the SVD++ table's values at the same seed."""
        want = list(variant.tables)
        t = init_tables(6, 9, 8, variant, derive_seed(13, "init"), scale=1.0)
        full = init_tables(6, 9, 8, Variant.SVDPP, derive_seed(13, "init"), scale=1.0)
        assert [name for name in ("P", "Q", "Qp") if getattr(t, name) is not None] == want
        for name in want:
            assert getattr(t, name).tobytes() == getattr(full, name).tobytes(), name
        spec = spec_for(variant, MergeKind.OUTER, HeadKind.CNN)
        heads = {name for name, _ in head_sections(spec.head)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(spec, t, str(path))
        header = path.read_bytes().split(b"\n\n", 1)[0].decode().splitlines()
        report = finite_diff_check(spec, t, (1, 2, 5), [0, 2, 4, 7], seed=3)
        assert report.passed
        views = {
            "section_arrays": list(section_arrays(spec, t)),
            "checkpoint": [line.split()[0] for line in header[1:]],
            "param_count": [name for name, _ in param_count(spec, 6, 9).embedding_sections],
            "gradcheck": [s.name for s in report.sections],
            "adagrad": list(AdagradState(spec, t)),  # packs the head: last
        }
        for view, names in views.items():
            assert [name for name in names if name not in heads] == want, view


class TestInit:
    def test_conv_stack_shape_and_seeding(self):
        a = init_conv_stack(16, 8, 3)
        b = init_conv_stack(16, 8, 3)
        assert a.depth == 4 and a.C == 8
        assert a.layers[0].kernel.shape == (2, 2, 1, 8)
        assert a.layers[1].kernel.shape == (2, 2, 8, 8)
        assert all(float(layer.bias) == 0.0 for layer in a.layers)
        np.testing.assert_array_equal(a.w, b.w)

    def test_conv_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            init_conv_stack(12, 4, 0)

    def test_mlp_halving_widths(self):
        head = init_mlp_head(64, 3, 0)
        assert [layer.W.shape for layer in head.layers] == [(32, 64), (16, 32), (8, 16)]
        assert head.w.shape == (8,)

    def test_mlp_rejects_collapse(self):
        with pytest.raises(ConfigurationError):
            init_mlp_head(2, 3, 0)

    def test_linear_head_is_ones(self):
        head = new_head(HeadKind.LINEAR, MergeKind.ELEMENTWISE, 6, 1, 1, 0)
        np.testing.assert_array_equal(head.w, np.ones(6))
