"""Kernel tests: the outer map and inner product (merge), relu and dense
layers (the MLP head) and the 2x2 / stride-2 convolution, each against a
loop oracle or finite differences. Conv operands are built row-major and
converted to and from the kernels' quadtree layout, so every comparison
is made in row-major layout."""

import numpy as np
import pytest

from convncf.model import MergeKind, MlpHead, MlpLayer, init_conv_stack, merge, mlp_backward, mlp_forward
from convncf.tensor import conv2x2s2_backward, conv2x2s2_forward, from_quadtree, quadtree_order, to_quadtree

from _oracles import conv2x2s2_loops, dense_loops, numeric_grad, outer_loops


def one_layer_mlp(W, b, w):
    return MlpHead(layers=[MlpLayer(W=W, b=b)], w=w)


class TestOuter:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(1, 9))
            a = rng.normal(size=(1, k))
            b = rng.normal(size=(1, k))
            E = merge(MergeKind.OUTER, a, b)
            assert E.shape == (1, k, k)
            np.testing.assert_allclose(E[0], outer_loops(a[0], b[0]), atol=1e-12, rtol=0)

    def test_rank_one_structure(self):
        """Every row of the outer product is a scalar multiple of b."""
        a = np.array([[2.0, -3.0]])
        b = np.array([[1.0, 4.0]])
        E = merge(MergeKind.OUTER, a, b)[0]
        np.testing.assert_allclose(E[0], 2.0 * b[0])
        np.testing.assert_allclose(E[1], -3.0 * b[0])


class TestDot:
    def test_matches_sum(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
        y = merge(MergeKind.INNER, a, b)
        assert y.shape == (1,)
        assert y[0] == pytest.approx(sum(x * z for x, z in zip(a[0], b[0])))


class TestRelu:
    # A kernel that copies channel d of each patch's top-left entry to output
    # channel d turns the conv layer into an elementwise relu over them.
    PICK = np.zeros((2, 2, 3, 3))
    PICK[0, 0] = np.eye(3)

    def _inp(self, values):
        inp = np.zeros((1, 2, 2, 3))
        inp[0, 0, 0] = values
        return inp

    def test_values(self):
        _, act = conv2x2s2_forward(to_quadtree(self._inp([-2.0, 0.0, 3.5])), self.PICK, 0.0)
        np.testing.assert_array_equal(act.reshape(-1), [0.0, 0.0, 3.5])

    def test_backward_zero_subgradient_at_kink(self):
        # the subgradient at exactly 0 is taken as 0
        pre = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 3)
        d_inp, _, _ = conv2x2s2_backward(to_quadtree(self._inp(np.zeros(3))), self.PICK, pre, np.ones((1, 1, 3)))
        np.testing.assert_array_equal(from_quadtree(d_inp)[0, 0, 0], [0.0, 0.0, 1.0])


def spatial_forward(inp, kernel, bias):
    """conv2x2s2_forward on a row-major stack; row-major (pre, act)."""
    pre, act = conv2x2s2_forward(to_quadtree(inp), kernel, bias)
    return from_quadtree(pre), from_quadtree(act)


def spatial_backward(inp, kernel, pre, d_act):
    """conv2x2s2_backward on row-major operands; row-major d_input."""
    d_inp, d_kernel, d_bias = conv2x2s2_backward(to_quadtree(inp), kernel, to_quadtree(pre), to_quadtree(d_act))
    return from_quadtree(d_inp), d_kernel, d_bias


class TestQuadtreeLayout:
    @pytest.mark.parametrize("K", [2, 4, 8, 64])
    def test_round_trip(self, K):
        x = np.random.default_rng(K).normal(size=(3, K, K, 2))
        order = quadtree_order(K)
        np.testing.assert_array_equal(np.sort(order), np.arange(K * K))
        assert from_quadtree(to_quadtree(x)).tobytes() == x.tobytes()

    @pytest.mark.parametrize("K", [2, 4, 8, 64])
    def test_patches_are_consecutive_rows(self, K):
        """Rows 4m..4m+3 are the 2x2 patch under the output position that
        sits at row m of the halved map, in (a, b) order."""
        x = np.arange(K * K, dtype=np.float64).reshape(1, K, K, 1)
        q = to_quadtree(x)[0, :, 0].reshape(-1, 4)
        out = from_quadtree(np.arange(K * K // 4, dtype=np.float64).reshape(1, -1, 1))[0, :, :, 0]
        for i in range(K // 2):
            for j in range(K // 2):
                m = int(out[i, j])
                np.testing.assert_array_equal(q[m], x[0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 0].reshape(4))


class TestConv2x2Stride2:
    def _random_case(self, rng, s=4, cin=3, cout=2):
        inp = rng.normal(size=(1, 2 * s, 2 * s, cin))
        kernel = rng.normal(size=(2, 2, cin, cout))
        bias = float(rng.normal())
        return inp, kernel, bias

    def test_forward_matches_loop_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            inp, kernel, bias = self._random_case(rng, s=int(rng.integers(1, 4)))
            pre, act = spatial_forward(inp, kernel, bias)
            pre_o, act_o = conv2x2s2_loops(inp[0], kernel, bias)
            np.testing.assert_allclose(pre[0], pre_o, atol=1e-12, rtol=0)
            np.testing.assert_allclose(act[0], act_o, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("size,cin", [(64, 1), (8, 32)])
    def test_flagship_layer_matches_loop_oracle(self, size, cin):
        rng = np.random.default_rng(size + cin)
        inp, kernel, bias = self._random_case(rng, s=size // 2, cin=cin, cout=32)
        pre, act = spatial_forward(inp, kernel, bias)
        pre_o, act_o = conv2x2s2_loops(inp[0], kernel, bias)
        np.testing.assert_allclose(pre[0], pre_o, atol=1e-12, rtol=0)
        np.testing.assert_allclose(act[0], act_o, atol=1e-12, rtol=0)

    def test_halves_spatial_size(self):
        rng = np.random.default_rng(5)
        inp, kernel, bias = self._random_case(rng, s=4)
        pre, act = conv2x2s2_forward(to_quadtree(inp), kernel, bias)
        assert pre.shape == (1, 16, 2)
        assert act.shape == (1, 16, 2)

    def test_backward_matches_finite_differences(self):
        """Gradients with respect to input, kernel, and bias all agree with
        central differences of sum(act * weights)."""
        rng = np.random.default_rng(41)
        inp, kernel, bias = self._random_case(rng, s=2)
        d_act = rng.normal(size=(1, 2, 2, 2))
        bias_arr = np.array(bias)

        def objective():
            _, act = spatial_forward(inp, kernel, float(bias_arr))
            return float(np.sum(act * d_act))

        pre, _ = spatial_forward(inp, kernel, bias)
        d_inp, d_kernel, d_bias = spatial_backward(inp, kernel, pre, d_act)
        assert d_kernel.shape == (1, 2, 2, 3, 2) and d_bias.shape == (1,)

        for arr, grad in ((inp, d_inp), (kernel, d_kernel[0])):
            for flat in rng.choice(arr.size, size=8, replace=False):
                want = numeric_grad(objective, arr, int(flat))
                assert grad.flat[int(flat)] == pytest.approx(want, abs=1e-6)
        assert d_bias[0] == pytest.approx(numeric_grad(objective, bias_arr, 0), abs=1e-6)

    def test_backward_adjoint_identity(self):
        # <d_act, J dx> == <J^T d_act, dx> for the pre-activation map
        rng = np.random.default_rng(53)
        inp, kernel, bias = self._random_case(rng, s=3)
        dx = rng.normal(size=inp.shape)
        d_act = rng.normal(size=(1, 3, 3, 2))
        pre, _ = spatial_forward(inp, kernel, bias)
        # bypass relu: force every unit active so the map is linear
        pre_active = np.abs(pre) + 1.0
        d_inp, _, _ = spatial_backward(inp, kernel, pre_active, d_act)
        pre_dx, _ = spatial_forward(dx, kernel, 0.0)
        np.testing.assert_allclose(np.sum(d_act * pre_dx), np.sum(d_inp * dx), rtol=1e-12)

    def test_input_gradient_zero_where_relu_dead(self):
        rng = np.random.default_rng(67)
        inp, kernel, bias = self._random_case(rng, s=1, cin=1, cout=1)
        pre, _ = spatial_forward(inp, kernel, bias)
        dead_pre = -np.abs(pre) - 1.0
        d_inp, d_kernel, d_bias = spatial_backward(inp, kernel, dead_pre, np.ones((1, 1, 1, 1)))
        assert not d_inp.any() and not d_kernel.any() and not d_bias.any()

    def test_flagship_rows_equal_rows_alone(self):
        """At K=64 C=32, every layer's forward and backward outputs for a
        batch of five rows equal each row run alone, bit for bit."""
        rng = np.random.default_rng(83)
        stack = init_conv_stack(64, 32, 83)
        x = to_quadtree(rng.normal(size=(5, 64, 64, 1)))
        for layer in stack.layers:
            outs = conv2x2s2_forward(x, layer.kernel, layer.bias)
            d_act = rng.normal(size=outs[0].shape)
            outs += conv2x2s2_backward(x, layer.kernel, outs[0], d_act)
            for r in range(x.shape[0]):
                alone = conv2x2s2_forward(x[r : r + 1], layer.kernel, layer.bias)
                alone += conv2x2s2_backward(x[r : r + 1], layer.kernel, alone[0], d_act[r : r + 1])
                for batch, single in zip(outs, alone):
                    assert batch[r : r + 1].tobytes() == single.tobytes()
            x = outs[1]


class TestDense:
    def test_forward_matches_loop_oracle(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(1, 5))
        W = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        cache, _ = mlp_forward(one_layer_mlp(W, b, np.ones(3)), x)
        np.testing.assert_allclose(cache.pres[0][0], dense_loops(x[0], W, b), atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(79)
        x = rng.normal(size=(1, 4))
        W = rng.normal(size=(3, 4))
        b = rng.normal(size=3) + 10.0  # every unit active: the layer is affine
        weights = rng.normal(size=3)
        head = one_layer_mlp(W, b, weights)

        def objective():
            return float(mlp_forward(head, x)[1][0])

        cache, _ = mlp_forward(head, x)
        grads, d_x = mlp_backward(head, cache, np.ones(1))
        for arr, grad in ((x, d_x), (W, grads["mlp.1.W"]), (b, grads["mlp.1.b"])):
            for flat in range(arr.size):
                assert grad.flat[flat] == pytest.approx(numeric_grad(objective, arr, flat), abs=1e-7)

    def test_backward_is_zero_at_and_below_the_kink(self):
        """Units with pre-activation exactly 0 or below pass no gradient
        (subgradient 0 at the kink), to d_x, W or b."""
        x = np.array([[1.0, 2.0]])
        W = np.array([[1.0, -0.5], [1.0, 1.0], [-1.0, 0.0]])
        head = one_layer_mlp(W, np.zeros(3), np.array([1.0, 2.0, 3.0]))
        cache, _ = mlp_forward(head, x)
        np.testing.assert_array_equal(cache.pres[0], [[0.0, 3.0, -1.0]])
        grads, d_x = mlp_backward(head, cache, np.ones(1))
        np.testing.assert_array_equal(grads["mlp.1.W"], [[0.0, 0.0], [2.0, 4.0], [0.0, 0.0]])
        np.testing.assert_array_equal(grads["mlp.1.b"], [0.0, 2.0, 0.0])
        np.testing.assert_array_equal(d_x, [[2.0, 2.0]])  # 2 * W[1] alone
