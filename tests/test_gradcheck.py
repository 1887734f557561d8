import numpy as np
import pytest

from convncf.data import derive_seed
from convncf.embeddings import Variant, init_tables
from convncf.gradcheck import finite_diff_check, format_report, triple_gradients
from convncf.model import HeadKind, IdentityHead, MergeKind, ModelSpec, new_head

TRIPLE = (1, 2, 5)
HISTORY = [0, 2, 4, 7]


def fixture(variant=Variant.MF, merge=MergeKind.OUTER, head_kind=HeadKind.CNN, K=8, C=4, seed=0):
    tables = init_tables(6, 9, K, variant, derive_seed(seed, "init"), scale=1.0)
    if head_kind is HeadKind.IDENTITY:
        head = IdentityHead()
    else:
        head = new_head(head_kind, merge, K, C, 2, derive_seed(seed, "init_head"))
    spec = ModelSpec(variant=variant, merge=merge, head=head, K=K)
    return spec, tables


class TestPassesOnCorrectGradients:
    @pytest.mark.parametrize(
        "variant,merge,head_kind",
        [
            (Variant.MF, MergeKind.OUTER, HeadKind.CNN),
            (Variant.FISM, MergeKind.OUTER, HeadKind.CNN),
            (Variant.SVDPP, MergeKind.OUTER, HeadKind.CNN),
            (Variant.MF, MergeKind.ELEMENTWISE, HeadKind.LINEAR),
            (Variant.MF, MergeKind.CONCAT, HeadKind.MLP),
            (Variant.MF, MergeKind.INNER, HeadKind.IDENTITY),
        ],
    )
    def test_model_family(self, variant, merge, head_kind):
        spec, tables = fixture(variant, merge, head_kind)
        report = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=3)
        assert report.passed, format_report(report)
        total_checked = sum(s.checked for s in report.sections)
        assert total_checked > 0

    def test_fism_has_no_user_table_coordinates(self):
        spec, tables = fixture(Variant.FISM)
        report = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=3)
        by_name = {s.name: s for s in report.sections}
        assert "P" not in by_name
        assert by_name["Qp"].checked > 0

    def test_deterministic_given_seed(self):
        spec, tables = fixture()
        a = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=11)
        b = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=11)
        for sa, sb in zip(a.sections, b.sections):
            assert (sa.checked, sa.skipped, sa.max_rel_err) == (sb.checked, sb.skipped, sb.max_rel_err)

    def test_perturbations_are_restored(self):
        spec, tables = fixture()
        before = tables.P.copy(), tables.Q.copy(), spec.head.w.copy()
        finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=3)
        np.testing.assert_array_equal(tables.P, before[0])
        np.testing.assert_array_equal(tables.Q, before[1])
        np.testing.assert_array_equal(spec.head.w, before[2])


class TestZeroNet:
    def test_zero_w_zeroes_both_grads_and_skips_nothing_spurious(self):
        """With w == 0 the loss surface is flat in w's orthogonal directions:
        embedding gradients vanish, w's own gradient is still real."""
        spec, tables = fixture()
        spec.head.w[:] = 0.0
        report = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=5)
        assert report.passed, format_report(report)


class TestHasTeeth:
    def test_sign_flip_in_conv_sections_is_caught(self):
        spec, tables = fixture()

        def corrupted(spec_, tables_, u, i, j, history):
            grads, rows = triple_gradients(spec_, tables_, u, i, j, history)
            for name in grads:
                if name.startswith("conv.") and name.endswith(".kernel"):
                    grads[name] = -grads[name]
            return grads, rows

        report = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=7, grad_fn=corrupted)
        assert not report.passed
        failed = {s.name for s in report.sections if not s.passed}
        assert failed and all(n.startswith("conv.") and n.endswith(".kernel") for n in failed)

    def test_scaled_embedding_gradient_is_caught(self):
        spec, tables = fixture(Variant.SVDPP)

        def corrupted(spec_, tables_, u, i, j, history):
            grads, rows = triple_gradients(spec_, tables_, u, i, j, history)
            grads["P"] = 1.5 * grads["P"]
            return grads, rows

        report = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=7, grad_fn=corrupted)
        by_name = {s.name: s for s in report.sections}
        assert not by_name["P"].passed
        assert by_name["Q"].passed

    @pytest.mark.parametrize("variant", [Variant.FISM, Variant.SVDPP])
    def test_dropped_history_row_is_caught(self, variant):
        """A scatter rule that loses the last history row fails Qp, and only
        Qp: the row is a candidate whatever the analytic side lists."""
        spec, tables = fixture(variant)

        def corrupted(spec_, tables_, u, i, j, history):
            grads, rows = triple_gradients(spec_, tables_, u, i, j, history)
            rows["Qp"] = rows["Qp"][:-1]
            return grads, rows

        report = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=7, grad_fn=corrupted)
        assert {s.name for s in report.sections if not s.passed} == {"Qp"}

    def test_scaled_mlp_weight_gradient_is_caught(self):
        spec, tables = fixture(merge=MergeKind.OUTER, head_kind=HeadKind.MLP)

        def corrupted(spec_, tables_, u, i, j, history):
            grads, rows = triple_gradients(spec_, tables_, u, i, j, history)
            grads["mlp.1.W"] = 1.5 * grads["mlp.1.W"]
            return grads, rows

        report = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=7, grad_fn=corrupted)
        assert {s.name for s in report.sections if not s.passed} == {"mlp.1.W"}

    def test_nonfinite_parameter_is_reported_not_crashed(self):
        spec, tables = fixture(merge=MergeKind.INNER, head_kind=HeadKind.IDENTITY)
        tables.P[TRIPLE[0], 0] = np.nan
        with np.errstate(invalid="ignore"):
            report = finite_diff_check(spec, tables, TRIPLE, seed=2)
        assert not report.passed
        assert any(s.failures for s in report.sections)


class TestStepHalving:
    def test_smooth_model_error_shrinks_quadratically(self):
        """On the kink-free inner-product model the central difference has
        O(step^2) truncation error; halving the step should cut the max
        absolute discrepancy by roughly 4 (allow 2.5x to be safe)."""
        spec, tables = fixture(merge=MergeKind.INNER, head_kind=HeadKind.IDENTITY)
        coarse = finite_diff_check(spec, tables, TRIPLE, step=2e-3, seed=13)
        fine = finite_diff_check(spec, tables, TRIPLE, step=1e-3, seed=13)
        err_coarse = max(s.max_abs_err for s in coarse.sections)
        err_fine = max(s.max_abs_err for s in fine.sections)
        assert err_coarse > 0
        assert err_fine < err_coarse / 2.5


class TestFormatReport:
    def test_mentions_sections_and_verdict(self):
        spec, tables = fixture()
        report = finite_diff_check(spec, tables, TRIPLE, HISTORY, seed=3)
        text = format_report(report)
        assert "PASS" in text
        assert "conv.1.kernel" in text and "Q" in text

    def test_failure_lists_coordinates(self):
        spec, tables = fixture(merge=MergeKind.INNER, head_kind=HeadKind.IDENTITY)

        def corrupted(spec_, tables_, u, i, j, history):
            grads, rows = triple_gradients(spec_, tables_, u, i, j, history)
            grads["Q"] = grads["Q"] + 7.0
            return grads, rows

        report = finite_diff_check(spec, tables, TRIPLE, seed=3, grad_fn=corrupted)
        text = format_report(report)
        assert "FAIL" in text and "coordinate" in text
