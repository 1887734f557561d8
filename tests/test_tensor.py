"""Kernel tests: the outer map and inner product (merge), relu and dense
layers (the MLP head) and the 2x2 / stride-2 convolution, each against a
loop oracle or finite differences, and a check that no pass writes to an
argument other than its output buffers. Conv operands are built row-major
and converted to and from the kernels' quadtree layout, so every
comparison is made in row-major layout."""

import numpy as np
import pytest

from convncf.embeddings import Variant
from convncf.model import (
    HeadKind,
    MergeKind,
    MlpHead,
    MlpLayer,
    ModelSpec,
    head_backward,
    head_forward,
    head_sections,
    head_views,
    init_conv_stack,
    init_mlp_head,
    merge,
    mlp_backward,
    mlp_forward,
    new_head,
    tower_work,
)
from convncf import model, tensor
from convncf.tensor import (
    conv2x2s2_backward,
    conv2x2s2_forward,
    from_quadtree,
    quadtree_order,
    relu_backward,
    to_quadtree,
)

from _oracles import conv2x2s2_loops, dense_loops, mlp_loops, numeric_grad, outer_loops, relu_backward_loops


def layer_forward(inp, kernel, bias):
    """conv2x2s2_forward into a fresh act buffer."""
    n, p, _ = inp.shape
    return conv2x2s2_forward(inp, kernel, bias, np.empty((n, p // 4, kernel.shape[3])))


def layer_backward(inp, kernel, act, d_act):
    """conv2x2s2_backward into fresh relu and input cotangent buffers."""
    return conv2x2s2_backward(inp, kernel, act, d_act, np.empty(act.shape), np.empty(inp.shape))


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
        act = layer_forward(to_quadtree(self._inp([-2.0, 0.0, 3.5])), self.PICK, 0.0)
        np.testing.assert_array_equal(act.reshape(-1), [0.0, 0.0, 3.5])

    def test_backward_zero_subgradient_at_kink(self):
        # the subgradient at exactly 0 is taken as 0
        inp = to_quadtree(self._inp([-1.0, 0.0, 2.0]))
        act = layer_forward(inp, self.PICK, 0.0)
        d_inp, _, _ = layer_backward(inp, self.PICK, act, np.ones((1, 1, 3)))
        np.testing.assert_array_equal(from_quadtree(d_inp)[0, 0, 0], [0.0, 0.0, 1.0])


    @pytest.mark.parametrize("shape", [(2, 4, 8), (2, 1024, 32)])  # a desk layer, a K=64 C=32 layer
    @pytest.mark.parametrize("mask", ["random", "live", "dead"])
    def test_mask_matches_loop_oracle_bit_for_bit(self, shape, mask):
        """relu_backward equals the entry-by-entry oracle bit for bit on
        random and uniform masks: a -0.0 or NaN entry of d keeps its bits
        where the unit is live, and every dead entry, -0.0 act included, is
        +0.0."""
        rng = np.random.default_rng(89)
        act = {
            "random": np.maximum(rng.normal(size=shape), 0.0),
            "live": np.abs(rng.normal(size=shape)) + 1.0,
            "dead": np.zeros(shape),
        }[mask]
        if mask != "live":
            act.flat[::13] = -0.0  # a dead unit whose relu output kept the sign of a -0.0 pre-activation
        d = rng.normal(size=shape)
        d.flat[::5] = -0.0
        d.flat[1::11] = np.nan
        got = relu_backward(act, d, np.empty(shape))
        assert got.dtype == np.float64 and got.shape == shape
        assert got.tobytes() == relu_backward_loops(act, d).tobytes()
        assert got.tobytes() == np.where(act > 0, d, 0.0).tobytes()

    def test_tower_backwards_match_the_oracle_mask(self, monkeypatch):
        """A conv layer and a dense layer, each with a live mask and -0.0
        entries in its output gradient, give the bits they give with the
        loop oracle's mask."""
        rng = np.random.default_rng(97)
        inp = to_quadtree(rng.normal(size=(2, 32, 32, 32)))
        kernel = rng.normal(size=(2, 2, 32, 32))
        act = layer_forward(inp, kernel, np.array(0.1))
        head = init_mlp_head(1024, 1, 97)
        head.layers[0].b = rng.normal(size=512)
        acts, _ = mlp_forward(head, rng.normal(size=(8, 1024)))
        d_act = rng.normal(size=act.shape)
        d_act.flat[::3] = -0.0
        d_y = rng.normal(size=8)
        d_y[::3] = -0.0
        assert 0.2 < (act > 0).mean() < 0.8 and 0.2 < (acts[1] > 0).mean() < 0.8

        def run():
            conv = layer_backward(inp, kernel, act, d_act)
            grads = head_views(head)
            d_X0 = mlp_backward(head, acts, d_y, grads)
            return [a.tobytes() for a in (*conv, *grads.values(), d_X0)]

        fast = run()
        for module in (tensor, model):
            monkeypatch.setattr(module, "relu_backward", relu_backward_loops)
        assert run() == fast


def spatial_forward(inp, kernel, bias):
    """conv2x2s2_forward on a row-major stack; row-major act."""
    return from_quadtree(layer_forward(to_quadtree(inp), kernel, bias))


def spatial_backward(inp, kernel, act, d_act):
    """conv2x2s2_backward on row-major operands; row-major d_input."""
    d_inp, d_kernel, d_bias = layer_backward(to_quadtree(inp), kernel, to_quadtree(act), to_quadtree(d_act))
    return from_quadtree(d_inp), d_kernel, d_bias


def assert_forward_matches_oracle(inp, kernel, bias):
    """act equals the loop oracle's act; then, with the bias raised past the
    most negative oracle pre-activation so that every unit is live, act
    equals the oracle's pre-activation, so every linear entry is compared."""
    pre_o, act_o = conv2x2s2_loops(inp[0], kernel, bias)
    np.testing.assert_allclose(spatial_forward(inp, kernel, bias)[0], act_o, atol=1e-12, rtol=0)
    live = bias + abs(float(pre_o.min())) + 1.0
    live_pre_o, _ = conv2x2s2_loops(inp[0], kernel, live)
    assert (live_pre_o > 0).all()
    np.testing.assert_allclose(spatial_forward(inp, kernel, live)[0], live_pre_o, atol=1e-12, rtol=0)


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
            assert_forward_matches_oracle(inp, kernel, bias)

    @pytest.mark.parametrize("size,cin", [(64, 1), (8, 32)])
    def test_flagship_layer_matches_loop_oracle(self, size, cin):
        rng = np.random.default_rng(size + cin)
        inp, kernel, bias = self._random_case(rng, s=size // 2, cin=cin, cout=32)
        assert_forward_matches_oracle(inp, kernel, bias)

    def test_halves_spatial_size(self):
        rng = np.random.default_rng(5)
        inp, kernel, bias = self._random_case(rng, s=4)
        assert layer_forward(to_quadtree(inp), kernel, bias).shape == (1, 16, 2)

    def test_backward_matches_finite_differences(self):
        """Gradients with respect to input, kernel, and bias all agree with
        central differences of sum(act * weights)."""
        rng = np.random.default_rng(41)
        inp, kernel, bias = self._random_case(rng, s=2)
        d_act = rng.normal(size=(1, 2, 2, 2))
        bias_arr = np.array(bias)

        def objective():
            return float(np.sum(spatial_forward(inp, kernel, float(bias_arr)) * d_act))

        act = spatial_forward(inp, kernel, bias)
        d_inp, d_kernel, d_bias = spatial_backward(inp, kernel, act, d_act)
        assert d_kernel.shape == (1, 2, 2, 3, 2) and d_bias.shape == (1,)

        for arr, grad in ((inp, d_inp), (kernel, d_kernel[0])):
            for flat in rng.choice(arr.size, size=8, replace=False):
                want = numeric_grad(objective, arr, int(flat))
                assert grad.flat[int(flat)] == pytest.approx(want, abs=1e-6)
        assert d_bias[0] == pytest.approx(numeric_grad(objective, bias_arr, 0), abs=1e-6)

    def test_backward_adjoint_identity(self):
        # <d_act, J dx> == <J^T d_act, dx> for the pre-activation map
        rng = np.random.default_rng(53)
        inp, kernel, _ = self._random_case(rng, s=3)
        dx = rng.normal(size=inp.shape)
        d_act = rng.normal(size=(1, 3, 3, 2))
        # bypass relu: mark every unit active so the map is linear
        d_inp, _, _ = spatial_backward(inp, kernel, np.ones(d_act.shape), d_act)
        pre_dx, _ = conv2x2s2_loops(dx[0], kernel, 0.0)
        np.testing.assert_allclose(np.sum(d_act[0] * pre_dx), np.sum(d_inp * dx), rtol=1e-12)

    def test_input_gradient_zero_where_relu_dead(self):
        rng = np.random.default_rng(67)
        inp, kernel, bias = self._random_case(rng, s=1, cin=1, cout=1)
        pre_o, _ = conv2x2s2_loops(inp[0], kernel, bias)
        dead = bias - abs(float(pre_o.max())) - 1.0
        act = spatial_forward(inp, kernel, dead)
        assert not act.any()
        d_inp, d_kernel, d_bias = spatial_backward(inp, kernel, act, np.ones((1, 1, 1, 1)))
        assert not d_inp.any() and not d_kernel.any() and not d_bias.any()

    def test_flagship_rows_equal_rows_alone(self):
        """At K=64 C=32, every layer's forward and backward outputs for a
        batch of five rows equal each row run alone, bit for bit."""
        rng = np.random.default_rng(83)
        stack = init_conv_stack(64, 32, 83)
        x = to_quadtree(rng.normal(size=(5, 64, 64, 1)))
        for layer in stack.layers:
            act = layer_forward(x, layer.kernel, layer.bias)
            d_act = rng.normal(size=act.shape)
            outs = (act,) + layer_backward(x, layer.kernel, act, d_act)
            for r in range(x.shape[0]):
                alone = layer_forward(x[r : r + 1], layer.kernel, layer.bias)
                alone = (alone,) + layer_backward(x[r : r + 1], layer.kernel, alone, d_act[r : r + 1])
                for batch, single in zip(outs, alone):
                    assert batch[r : r + 1].tobytes() == single.tobytes()
            x = act


class TestDense:
    def test_forward_matches_loop_oracle(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(1, 5))
        W = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        acts, _ = mlp_forward(one_layer_mlp(W, b, np.ones(3)), x)
        pre_o = dense_loops(x[0], W, b)
        np.testing.assert_allclose(acts[1][0], np.maximum(pre_o, 0.0), atol=1e-12)
        # bias raised past the most negative pre-activation: every unit is
        # live, so the output equals the affine map entry by entry
        live = b + abs(float(pre_o.min())) + 1.0
        live_pre_o = dense_loops(x[0], W, live)
        assert (live_pre_o > 0).all()
        acts, _ = mlp_forward(one_layer_mlp(W, live, np.ones(3)), x)
        np.testing.assert_allclose(acts[1][0], live_pre_o, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(79)
        x = rng.normal(size=(1, 4))
        W = rng.normal(size=(3, 4))
        b = rng.normal(size=3) + 10.0  # every unit active: the layer is affine
        weights = rng.normal(size=3)
        head = one_layer_mlp(W, b, weights)

        def objective():
            return float(mlp_forward(head, x)[1][0])

        acts, _ = mlp_forward(head, x)
        grads = head_views(head)
        d_x = mlp_backward(head, acts, np.ones(1), grads)
        for arr, grad in ((x, d_x), (W, grads["mlp.1.W"]), (b, grads["mlp.1.b"])):
            for flat in range(arr.size):
                assert grad.flat[flat] == pytest.approx(numeric_grad(objective, arr, flat), abs=1e-7)

    def test_backward_is_zero_at_and_below_the_kink(self):
        """Units with pre-activation exactly 0 or below pass no gradient
        (subgradient 0 at the kink), to d_x, W or b."""
        x = np.array([[1.0, 2.0]])
        W = np.array([[1.0, -0.5], [1.0, 1.0], [-1.0, 0.0]])
        head = one_layer_mlp(W, np.zeros(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(dense_loops(x[0], W, np.zeros(3)), [0.0, 3.0, -1.0])
        acts, _ = mlp_forward(head, x)
        np.testing.assert_array_equal(acts[1], [[0.0, 3.0, 0.0]])
        grads = head_views(head)
        d_x = mlp_backward(head, acts, np.ones(1), grads)
        np.testing.assert_array_equal(grads["mlp.1.W"], [[0.0, 0.0], [2.0, 4.0], [0.0, 0.0]])
        np.testing.assert_array_equal(grads["mlp.1.b"], [0.0, 2.0, 0.0])
        np.testing.assert_array_equal(d_x, [[2.0, 2.0]])  # 2 * W[1] alone

    def test_batch_matches_per_row_loop_oracle(self):
        """A batch of five rows through a three-layer tower, some units dead:
        every layer's output, the scores, the W, b and w gradients summed
        over the rows and each row's input gradient equal the row-by-row
        loop oracle."""
        rng = np.random.default_rng(73)
        head = init_mlp_head(24, 3, 73)
        for layer in head.layers:
            layer.b = rng.normal(size=layer.b.shape)
        X0 = rng.normal(size=(5, 24))
        d_y = rng.normal(size=5)
        acts, y = mlp_forward(head, X0)
        grads = head_views(head)
        d_X0 = mlp_backward(head, acts, d_y, grads)
        want_acts, want_y, want_grads, want_d_X0 = mlp_loops(head, X0, d_y)
        assert all((a == 0).any() and (a > 0).any() for a in acts[1:])
        for l, (got, want) in enumerate(zip(acts, want_acts)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"layer {l}")
        np.testing.assert_allclose(y, want_y, rtol=0, atol=1e-12)
        assert list(grads) == ["mlp.1.W", "mlp.1.b", "mlp.2.W", "mlp.2.b", "mlp.3.W", "mlp.3.b", "w"]
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, want_grads[name], rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(d_X0, want_d_X0, rtol=0, atol=1e-12)


def _arrays(*objs):
    """Every array reachable from the arguments: arrays, lists and tuples of
    them, and the parameters of a head or a ModelSpec's head."""
    for obj in objs:
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            yield from _arrays(*obj)
        elif obj is not None:
            head = obj.head if isinstance(obj, ModelSpec) else obj
            yield from (arr for _, arr in head_sections(head))


def call_unchanged(fn, *args, **out):
    before = [arr.tobytes() for arr in _arrays(*args)]
    result = fn(*args, **out)
    assert [arr.tobytes() for arr in _arrays(*args)] == before, fn.__name__
    return result


class TestArgumentsUnchanged:
    """Relu runs in place on freshly computed products only: no forward or
    backward pass writes to an argument other than its output buffers,
    cached activations included."""

    def test_conv_and_dense_passes(self):
        rng = np.random.default_rng(89)
        x = to_quadtree(rng.normal(size=(3, 4, 4, 2)))
        kernel = rng.normal(size=(2, 2, 2, 3))
        act = call_unchanged(conv2x2s2_forward, x, kernel, np.zeros(()), act=np.empty((3, 4, 3)))
        assert (act == 0).any() and (act > 0).any()
        call_unchanged(
            conv2x2s2_backward, x, kernel, act, rng.normal(size=act.shape), d_pre=np.empty(act.shape), d_inp=np.empty(x.shape)
        )

        head = init_mlp_head(6, 2, 89)
        X0 = rng.normal(size=(3, 6))
        acts, _ = call_unchanged(mlp_forward, head, X0)
        call_unchanged(mlp_backward, head, acts, rng.normal(size=3), out=head_views(head))

    @pytest.mark.parametrize(
        "mk,hk",
        [
            (MergeKind.OUTER, HeadKind.CNN),
            (MergeKind.OUTER, HeadKind.MLP),
            (MergeKind.CONCAT, HeadKind.MLP),
            (MergeKind.ELEMENTWISE, HeadKind.LINEAR),
            (MergeKind.INNER, HeadKind.IDENTITY),
        ],
    )
    def test_head_backward(self, mk, hk):
        rng = np.random.default_rng(97)
        spec = ModelSpec(variant=Variant.MF, merge=mk, head=new_head(hk, mk, 8, 4, 2, 97), K=8)
        merged = merge(mk, rng.normal(size=(3, 8)), rng.normal(size=(3, 8)))
        work = tower_work(spec, 3)
        acts, _ = call_unchanged(head_forward, spec, merged, work=work)
        call_unchanged(head_backward, spec, merged, acts, rng.normal(size=3), out=head_views(spec.head), work=work)
