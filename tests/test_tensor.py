"""Autodiff engine checks against independent oracles.

Convolutions are compared with direct nested-loop implementations (a
scatter loop for the transposed one), gradients with central finite
differences, and the transposed convolution also with the adjoint
identity <conv(x), y> == <x, conv_t(y)>.
"""

import itertools
import os
import signal
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from chromacodec import DimensionError, NumericError
from chromacodec import tensor as T


def loop_conv2d(x, w, b, stride, padding):
    """Reference convolution: plain nested loops, no vectorization."""
    n, c, h, wdt = x.shape
    co, ci, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wdt + 2 * padding - k) // stride + 1
    out = np.zeros((n, co, oh, ow))
    for ni in range(n):
        for oc in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(ci):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (
                                    xp[ni, ic, oy * stride + ky, ox * stride + kx]
                                    * w[oc, ic, ky, kx]
                                )
                    out[ni, oc, oy, ox] = acc + (b[oc] if b is not None else 0.0)
    return out


def loop_conv_transpose2d(x, w, b, stride):
    """Reference transposed convolution: each input pixel scatters x·w into its k×k patch."""
    n, ci, h, wdt = x.shape
    _, co, k, _ = w.shape
    out = np.zeros((n, co, (h - 1) * stride + k, (wdt - 1) * stride + k))
    for ni in range(n):
        for ic in range(ci):
            for iy in range(h):
                for ix in range(wdt):
                    y0, x0 = iy * stride, ix * stride
                    out[ni, :, y0 : y0 + k, x0 : x0 + k] += x[ni, ic, iy, ix] * w[ic]
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


def loop_conv_dx(g, w, x_shape, stride, padding):
    """Reference input gradient: each output pixel scatters g·w into its input window."""
    n, c, h, wdt = x_shape
    co, _, k, _ = w.shape
    dxp = np.zeros((n, c, h + 2 * padding, wdt + 2 * padding))
    for oy in range(g.shape[2]):
        for ox in range(g.shape[3]):
            patch = (g[:, :, oy, ox] @ w.reshape(co, -1)).reshape(n, c, k, k)
            dxp[:, :, oy * stride : oy * stride + k, ox * stride : ox * stride + k] += patch
    return dxp[:, :, padding : padding + h, padding : padding + wdt]


def loop_conv_dw(x, g, k, stride, padding):
    """Reference weight gradient: sum over output pixels of g ⊗ input window."""
    n, c = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dw = np.zeros((g.shape[1], c * k * k))
    for oy in range(g.shape[2]):
        for ox in range(g.shape[3]):
            win = xp[:, :, oy * stride : oy * stride + k, ox * stride : ox * stride + k]
            dw += g[:, :, oy, ox].T @ win.reshape(n, -1)
    return dw.reshape(g.shape[1], c, k, k)


# (Cin, Cout, k, stride, padding) of every convolution in the networks
NETWORK_CONVS = [
    # generator: multires blocks, residual chains, attention projections, head
    (1, 1, 3, 1, 1), (1, 2, 3, 1, 1), (2, 5, 3, 1, 1), (1, 8, 1, 1, 0),
    (8, 1, 3, 1, 1), (8, 2, 3, 1, 1), (16, 2, 3, 1, 1), (5, 9, 3, 1, 1),
    (8, 8, 1, 1, 0), (8, 16, 1, 1, 0), (16, 16, 1, 1, 0), (8, 8, 3, 1, 1), (16, 16, 3, 1, 1),
    (8, 1, 1, 1, 0), (16, 2, 1, 1, 0),
    # generator upsampling: conv_transpose2d runs on the conv2d of these shapes
    (16, 32, 2, 2, 0), (8, 32, 2, 2, 0), (8, 16, 2, 2, 0),
    # discriminator (its 8→8 and 8→1 3×3 layers have generator shapes)
    (3, 8, 4, 2, 1), (8, 8, 4, 2, 1),
    # content-loss FeatureExtractor
    (2, 8, 3, 2, 1), (8, 16, 3, 2, 1), (16, 32, 3, 2, 1), (32, 32, 3, 2, 1),
]


def block_splits(oh):
    """Output rows per im2col block: the default budget (None), 1-row blocks,
    and a block of oh − 1 rows followed by a 1-row remainder."""
    return [None, 1, oh - 1]


def set_block_rows(monkeypatch, rows, x, k, ow):
    """Budget for `rows` output rows per block of x's im2col; None keeps the default."""
    if rows is not None:
        n, c = x.shape[:2]
        monkeypatch.setattr(T, "BLOCK_ENTRIES", rows * n * c * k * k * ow)


class TestBasics:
    def test_add_known_values(self):
        a = T.Tensor([1.0, 2.0, 3.0])
        b = T.Tensor([10.0, 20.0, 30.0])
        assert np.array_equal((a + b).data, [11.0, 22.0, 33.0])

    def test_mul_broadcast_gradients(self):
        a = T.Tensor(np.ones((2, 3)), requires_grad=True)
        b = T.Tensor([[2.0], [3.0]], requires_grad=True)
        out = T.tsum(T.mul(a, b))
        T.backward(out)
        assert np.array_equal(a.grad, [[2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
        assert np.array_equal(b.grad, [[3.0], [3.0]])

    def test_mean_gradient_uniform(self):
        a = T.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        T.backward(T.mean(a))
        assert np.allclose(a.grad, 1.0 / 12.0)

    def test_item_of_one_element_array(self):
        assert T.Tensor([2.5]).item() == 2.5
        assert T.Tensor(np.full((1, 1, 1, 1), -0.5)).item() == -0.5

    @pytest.mark.parametrize(
        "first,second,message",
        [((2, 3, 4), (2, 3), "rank"), ((2, 3), (2, 3, 4), "rank"), ((2, 3, 4), (2, 3, 5), "axis 2")],
    )
    def test_concat_shape_mismatch_is_dimension_error(self, first, second, message):
        with pytest.raises(DimensionError, match=message):
            T.concat([T.Tensor(np.zeros(first)), T.Tensor(np.zeros(second))], axis=1)

    def test_concat_negative_axis(self):
        a = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = T.Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        out = T.concat([a, b], axis=-1)
        assert np.array_equal(out.data, np.concatenate([a.data, b.data], axis=-1))
        g = np.arange(14.0).reshape(2, 7)
        T.backward(T.tsum(T.mul(out, T.Tensor(g))))
        assert np.array_equal(a.grad, g[:, :3]) and np.array_equal(b.grad, g[:, 3:])

    @pytest.mark.parametrize("axis", [2, 5, -3])
    def test_concat_axis_out_of_range_is_dimension_error(self, axis):
        with pytest.raises(DimensionError, match=f"axis {axis} out of range for rank 2"):
            T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3)))], axis=axis)

    def test_scalar_required_for_backward(self):
        a = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            T.backward(a + a)

    def test_nonfinite_loss_rejected(self):
        a = T.Tensor([1e308], requires_grad=True)
        with np.errstate(over="ignore"):
            out = T.mul(a, a)  # overflows to inf
        with pytest.raises(NumericError):
            T.backward(out)

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(NumericError):
            T.Tensor([np.nan])

    def test_shared_subexpression_accumulates(self):
        # d/dx (x*x + x) = 2x + 1
        x = T.Tensor([3.0], requires_grad=True)
        T.backward(T.tsum(T.mul(x, x) + x))
        assert np.allclose(x.grad, [7.0])

    def test_add_hands_each_parent_its_own_gradient(self):
        # backward keeps the first gradient a leaf receives, uncopied, and
        # `add` passes g unreduced to both parents
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
        T.backward(T.tsum(T.square(a + b)))
        assert np.array_equal(a.grad, 2.0 * (a.data + b.data))
        assert np.array_equal(b.grad, 2.0 * (a.data + b.data))
        assert not np.shares_memory(a.grad, b.grad)
        x = T.Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        T.backward(T.tsum(T.square(x + x)))
        assert np.array_equal(x.grad, 8.0 * x.data)
        # sub of equal shapes hands g itself to a and a new -g to b
        a.zero_grad()
        b.zero_grad()
        T.backward(T.tsum(T.square(a - b)))
        assert np.array_equal(a.grad, 2.0 * (a.data - b.data))
        assert np.array_equal(b.grad, -2.0 * (a.data - b.data))
        assert not np.shares_memory(a.grad, b.grad)
        # with a frozen first input, g itself goes to the second one
        c = T.Tensor(a.data)
        b.zero_grad()
        T.backward(T.tsum(T.square(c + b)))
        assert c.grad is None
        assert np.array_equal(b.grad, 2.0 * (a.data + b.data))

    def test_backward_releases_spent_nodes(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        mid = T.tanh(x)
        loss = T.tsum(T.square(mid))
        T.backward(loss)
        assert x.grad is not None  # leaves keep their gradient
        for node in (mid, loss):
            assert node.grad is None and node._backprop is None and node._parents == ()

    def test_backward_memory_of_a_chain(self):
        # 16 tanh in a row at 176×144×8: a pass that kept every gradient
        # would hold 18 activations above the forward graph; this one holds
        # the pending gradient and temporaries, and frees each forward
        # value once its rule has run
        rng = np.random.default_rng(17)
        x = T.Tensor(rng.standard_normal((1, 8, 144, 176)), requires_grad=True)
        tracemalloc.start()
        try:
            y = x
            for _ in range(16):
                y = T.tanh(y)
            loss = T.tsum(y)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 4 * x.data.nbytes
        assert x.grad.shape == x.data.shape

    def test_detach_blocks_gradient(self):
        x = T.Tensor([2.0], requires_grad=True)
        y = T.mul(x.detach(), x)
        T.backward(T.tsum(y))
        assert np.allclose(x.grad, [2.0])

    def test_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            x = T.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            w = T.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            y = T.tsum(T.square(T.mul(x, w) + T.tanh(x)))
            T.backward(y)
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])


class TestSavedArrays:
    """The graph keeps only the arrays the gradient rules read."""

    def test_conv_outputs_freed_once_dropped(self):
        grads = []
        for drop in (True, False):
            rng = np.random.default_rng(21)
            x = T.Tensor(rng.standard_normal((1, 3, 9, 10)), requires_grad=True)
            w1, w2 = (T.Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True) for _ in "12")
            b1, b2 = (T.Tensor(rng.standard_normal(4), requires_grad=True) for _ in "12")
            c1, c2 = T.conv2d(x, w1, b1, 1, 1), T.conv2d(x, w2, b2, 1, 1)
            s = c1 + c2
            refs = [weakref.ref(c1.data), weakref.ref(c2.data)]
            if drop:
                del c1, c2
                assert all(r() is None for r in refs)
            T.backward(T.tsum(T.square(s)))
            grads.append([t.grad for t in (x, w1, b1, w2, b2)])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    def test_concat_operand_and_relu_input_freed(self):
        x = T.Tensor(np.linspace(-1.0, 1.0, 24).reshape(1, 2, 3, 4), requires_grad=True)
        u = T.scale(x, 3.0)
        joined = T.concat([u, x], axis=1)
        pre = T.scale(x, -2.0)
        out = T.relu(pre)
        concat_ref, relu_ref = weakref.ref(u.data), weakref.ref(pre.data)
        del u, pre
        assert concat_ref() is None
        assert relu_ref() is None
        T.backward(T.tsum(joined) + T.tsum(out))
        assert np.array_equal(x.grad, 4.0 - 2.0 * (x.data < 0.0))

    @pytest.mark.parametrize(
        "op, input_mask",
        [(T.relu, lambda x: x > 0.0), (T.leaky_relu, lambda x: np.where(x > 0.0, 1.0, T.LEAK))],
        ids=["relu", "leaky_relu"],
    )
    def test_mask_from_output_matches_input_mask(self, op, input_mask):
        # the rule reads its output's sign; the gradient is the one an input
        # mask gives, bit for bit, at signed zeros and subnormals too
        xs = np.array([-1.0, -0.0, 0.0, -1e-310, 1e-310, 2.0])
        proj = np.array([-3.0, 1.5, -0.5, 2.0, -7.0, 1.25])
        x = T.Tensor(xs, requires_grad=True)
        T.backward(T.tsum(T.mul(op(x), T.Tensor(proj))))
        assert x.grad.tobytes() == (proj * input_mask(xs)).tobytes()


class TestTracerHooks:
    """What an outside tracer reads and writes on op outputs."""

    def test_parents_walk_counts_every_node(self):
        x = T.Tensor([1.0, -2.0], requires_grad=True)
        c = T.Tensor([3.0, 4.0])
        loss = T.tsum(T.tanh(T.mul(x, c)) + x)  # loss, add, tanh, mul, x, c
        seen = {id(loss)}
        stack = [loss]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        assert len(seen) == 6

    def test_assigned_backprop_is_called(self):
        x = T.Tensor([0.5, -1.0], requires_grad=True)
        y = T.tanh(x)
        rule, calls = y._backprop, []

        def wrapped(g):
            calls.append(g.copy())
            rule(g)

        y._backprop = wrapped
        assert y._backprop is wrapped
        T.backward(T.tsum(y))
        assert len(calls) == 1 and np.array_equal(calls[0], [1.0, 1.0])
        assert np.array_equal(x.grad, 1.0 - np.tanh(x.data) ** 2)


class TestActivations:
    def test_softmax_known_values(self):
        # softmax([0, ln 3]) = [1/4, 3/4]
        s = T.softmax(T.Tensor([0.0, np.log(3.0)]))
        assert np.allclose(s.data, [0.25, 0.75], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.standard_normal((3, 7, 5)) * 50.0)
        s = T.softmax(x)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        a = T.softmax(T.Tensor(x)).data
        b = T.softmax(T.Tensor(x + 123.0)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_sigmoid_extremes_stable(self):
        s = T.sigmoid(T.Tensor([-1000.0, 0.0, 1000.0]))
        assert np.allclose(s.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_leaky_relu_values(self):
        y = T.leaky_relu(T.Tensor([-10.0, 0.0, 10.0]))
        assert np.allclose(y.data, [-2.0, 0.0, 10.0])

    def test_log_floor_keeps_zero_finite(self):
        y = T.log_floor(T.Tensor([0.0, 1.0]))
        assert np.isfinite(y.data).all()
        assert y.data[1] == 0.0


class TestConv:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        for stride, padding, k in [(1, 0, 3), (1, 1, 3), (2, 1, 4), (2, 0, 2), (1, 0, 1)]:
            x = rng.standard_normal((2, 3, 9, 8))
            w = rng.standard_normal((4, 3, k, k))
            b = rng.standard_normal(4)
            got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride, padding).data
            want = loop_conv2d(x, w, b, stride, padding)
            assert np.max(np.abs(got - want)) < 1e-12

    # plus padding ≥ k at stride 1, where the input gradient is not a convolution
    @pytest.mark.parametrize("cin, cout, k, stride, padding", NETWORK_CONVS + [(3, 4, 1, 1, 1)])
    def test_kernels_match_loops(self, cin, cout, k, stride, padding, monkeypatch):
        rng = np.random.default_rng(cin * 1000 + cout * 10 + k)
        x = rng.standard_normal((2, cin, 7, 6))
        w = rng.standard_normal((cout, cin, k, k))
        want = loop_conv2d(x, w, None, stride, padding)
        g = rng.standard_normal(want.shape)
        want_dx = loop_conv_dx(g, w, x.shape, stride, padding)
        want_dw = loop_conv_dw(x, g, k, stride, padding)
        for rows in block_splits(want.shape[2]):
            set_block_rows(monkeypatch, rows, x, k, want.shape[3])
            out = T._conv_fwd(x, w, stride, padding)
            assert np.max(np.abs(out - want)) <= 1e-12
            dx = T._conv_dx(g, w, x.shape, stride, padding)
            assert np.max(np.abs(dx - want_dx)) <= 1e-12
            dw = T._conv_dw(x, g, k, stride, padding)
            assert np.max(np.abs(dw - want_dw)) <= 1e-12

    @pytest.mark.parametrize("cin, cout, k, stride, padding", NETWORK_CONVS)
    def test_forward_does_not_depend_on_block_budget(self, cin, cout, k, stride, padding, monkeypatch):
        # the blocks' matrix products may round differently, but no further
        rng = np.random.default_rng(cin * 1000 + cout * 10 + k)
        x = rng.standard_normal((2, cin, 19, 22))
        w = rng.standard_normal((cout, cin, k, k))
        whole = T._conv_fwd(x, w, stride, padding)
        for rows in block_splits(whole.shape[2])[1:]:
            set_block_rows(monkeypatch, rows, x, k, whole.shape[3])
            out = T._conv_fwd(x, w, stride, padding)
            assert np.max(np.abs(out - whole)) <= 1e-12 * np.max(np.abs(whole))

    def test_forward_and_backward_memory(self):
        # one 8→8 3×3 layer at 176×144: a whole-frame im2col copy of the
        # input is 9 activations (its forward + backward peaked at 19.5 MB)
        rng = np.random.default_rng(13)
        x = T.Tensor(rng.standard_normal((1, 8, 144, 176)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
        b = T.Tensor(np.zeros(8), requires_grad=True)
        tracemalloc.start()
        try:
            T.backward(T.tsum(T.conv2d(x, w, b, 1, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * x.data.nbytes

    def test_frozen_weight_and_bias_get_no_gradient(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("weight gradient computed for a frozen weight")

        monkeypatch.setattr(T, "_conv_dw", refuse)
        rng = np.random.default_rng(14)
        for op, w_shape in ((T.conv2d, (4, 3, 3, 3)), (T.conv_transpose2d, (3, 4, 3, 3))):
            x = T.Tensor(rng.standard_normal((1, 3, 6, 6)), requires_grad=True)
            w, b = T.Tensor(rng.standard_normal(w_shape)), T.Tensor(np.zeros(4))
            T.backward(T.tsum(op(x, w, b, 1)))
            assert x.grad.shape == x.shape
            assert w.grad is None and b.grad is None

    def test_identity_kernel(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(1)), 1, 0).data
        assert np.array_equal(got, x)

    def test_channel_mismatch_raises(self):
        x = T.Tensor(np.zeros((1, 3, 8, 8)))
        w = T.Tensor(np.zeros((4, 2, 3, 3)))
        with pytest.raises(DimensionError, match="kernel Cin 2"):
            T.conv2d(x, w, T.Tensor(np.zeros(4)), 1, 1)
        with pytest.raises(DimensionError, match="kernel Cin 4"):
            T.conv_transpose2d(x, w, T.Tensor(np.zeros(2)), 2)
        with pytest.raises(DimensionError, match=r"bias shape \(4,\) != \(2,\) \(axis 1\)"):
            T.conv_transpose2d(T.Tensor(np.zeros((1, 4, 8, 8))), w, T.Tensor(np.zeros(4)), 2)

    @pytest.mark.parametrize("stride, k", [(1, 3), (2, 2), (2, 3), (2, 1), (3, 2)])
    def test_transpose_matches_scatter_loop(self, stride, k, monkeypatch):
        # overlapping patches (k > stride), exact tiling (k == stride) and gaps
        # (k < stride); its backward runs conv2d's kernels on g in these blocks
        rng = np.random.default_rng(20 + 10 * stride + k)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((3, 2, k, k))
        b = rng.standard_normal(2)
        want = loop_conv_transpose2d(x, w, b, stride)
        g = rng.standard_normal(want.shape)
        want_dx = loop_conv2d(g, w, None, stride, 0)
        want_dw = loop_conv_dw(g, x, k, stride, 0)
        for rows in block_splits(x.shape[2]):
            set_block_rows(monkeypatch, rows, g, k, x.shape[3])
            xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
            got = T.conv_transpose2d(xt, wt, T.Tensor(b), stride)
            assert got.shape == want.shape
            assert np.max(np.abs(got.data - want)) <= 1e-12
            T.backward(T.tsum(T.mul(got, T.Tensor(g))))
            assert np.max(np.abs(xt.grad - want_dx)) <= 1e-12
            assert np.max(np.abs(wt.grad - want_dw)) <= 1e-12

    def test_transpose_output_size(self):
        x = T.Tensor(np.zeros((1, 3, 5, 7)))
        w = T.Tensor(np.zeros((3, 2, 4, 4)))
        out = T.conv_transpose2d(x, w, T.Tensor(np.zeros(2)), stride=2)
        assert out.shape == (1, 2, 12, 16)

    def test_transpose_is_adjoint_of_conv(self):
        # <conv(x), y> == <x, conv_t(y)> for shared weights
        rng = np.random.default_rng(12)
        for stride, k in [(1, 3), (2, 2), (2, 4)]:
            x = rng.standard_normal((2, 3, 8, 8))
            w = rng.standard_normal((5, 3, k, k))
            fwd = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(5)), stride, 0).data
            y = rng.standard_normal(fwd.shape)
            # adjoint pairing uses the same (Cout, Cin, k, k) array as conv weights
            back = T.conv_transpose2d(
                T.Tensor(y), T.Tensor(np.ascontiguousarray(w)), T.Tensor(np.zeros(3)), stride
            )
            lhs = float((fwd * y).sum())
            rhs = float((x * back.data).sum())
            assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-10

    def test_maxpool_values_and_tiebreak(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert T.maxpool2(T.Tensor(x)).data[0, 0, 0, 0] == 4.0
        # all-equal block: gradient goes to the first element scanned
        xe = T.Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        T.backward(T.tsum(T.maxpool2(xe)))
        assert np.array_equal(xe.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])
        # small integers tie often; the loop takes the first strict max in scan order
        rng = np.random.default_rng(23)
        x = T.Tensor(rng.integers(-2, 3, (2, 3, 6, 8)).astype(np.float64), requires_grad=True)
        g = rng.standard_normal((2, 3, 3, 4))
        want_out, want_dx = np.zeros(g.shape), np.zeros(x.shape)
        for idx in np.ndindex(g.shape):
            n, c, i, j = idx
            win = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
            first = win[0]
            for yx in win[1:]:
                if x.data[n, c][yx] > x.data[n, c][first]:
                    first = yx
            want_out[idx] = x.data[n, c][first]
            want_dx[n, c][first] = g[idx]
        out = T.maxpool2(x)
        T.backward(T.tsum(T.mul(out, T.Tensor(g))))
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(x.grad, want_dx)
        # a window of signed zeros pools to its first one
        zeros = np.zeros((1, 1, 2, 4))
        zeros[0, 0, 0, 0] = zeros[0, 0, 1, 3] = -0.0
        assert list(np.signbit(T.maxpool2(T.Tensor(zeros)).data.ravel())) == [True, False]

    def test_maxpool_odd_input_raises(self):
        with pytest.raises(DimensionError):
            T.maxpool2(T.Tensor(np.zeros((1, 1, 3, 4))))

    def test_maxpool_needs_4d_input(self):
        with pytest.raises(DimensionError, match="N×C×H×W"):
            T.maxpool2(T.Tensor(np.zeros((1, 4, 4))))


class TestGradients:
    """Central finite differences, h = 1e-5, relative error under 1e-4."""

    def test_conv2d(self):
        err = T.grad_check(
            lambda x, w, b: T.conv2d(x, w, b, 2, 1),
            [(2, 3, 6, 6), (4, 3, 3, 3), (4,)],
            seed=1,
        )
        assert err < 1e-4

    def test_conv2d_same_padding(self):
        err = T.grad_check(
            lambda x, w, b: T.conv2d(x, w, b, 1, 1),
            [(2, 3, 5, 6), (4, 3, 3, 3), (4,)],
            seed=10,
        )
        assert err < 1e-4

    def test_conv_transpose2d(self):
        err = T.grad_check(
            lambda x, w, b: T.conv_transpose2d(x, w, b, 2),
            [(2, 3, 4, 4), (3, 2, 2, 2), (2,)],
            seed=2,
        )
        assert err < 1e-4

    def test_conv_transpose2d_overlapping(self):
        err = T.grad_check(
            lambda x, w, b: T.conv_transpose2d(x, w, b, 2),
            [(2, 3, 4, 5), (3, 2, 3, 3), (2,)],
            seed=5,
        )
        assert err < 1e-4

    def test_matmul(self):
        err = T.grad_check(lambda a, b: T.matmul(a, b), [(2, 3, 4), (2, 4, 5)], seed=3)
        assert err < 1e-4

    def test_softmax(self):
        err = T.grad_check(T.softmax, [(3, 6)], seed=4)
        assert err < 1e-4

    def test_activations(self):
        for fn in (T.relu, T.leaky_relu, T.sigmoid, T.tanh, T.square):
            err = T.grad_check(lambda x, f=fn: f(x), [(4, 5)], seed=5)
            assert err < 1e-4, fn.__name__

    def test_norms_and_reductions(self):
        for fn in (T.mean, T.tsum, T.l1_norm, T.l2_norm):
            err = T.grad_check(lambda x, f=fn: f(x), [(3, 4)], seed=6)
            assert err < 1e-4, fn.__name__

    def test_maxpool(self):
        err = T.grad_check(lambda x: T.maxpool2(x), [(2, 2, 4, 4)], seed=7)
        assert err < 1e-4

    def test_concat_reshape_transpose(self):
        def fn(a, b):
            c = T.concat([a, b], axis=1)
            return T.transpose_last2(T.reshape(c, (2, 25, 2)))

        err = T.grad_check(fn, [(2, 2, 10), (2, 3, 10)], seed=8)
        assert err < 1e-4

    def test_composite_expression(self):
        def fn(x, w):
            h = T.tanh(T.matmul(x, w))
            return T.mean(T.square(h + T.sigmoid(h)))

        err = T.grad_check(fn, [(3, 4, 4), (3, 4, 4)], seed=9)
        assert err < 1e-4


def composite_attention(f, g, h):
    """The attention graph built from matmul, softmax and transpose_last2."""
    scores = T.matmul(T.transpose_last2(f), g)
    return T.matmul(h, T.transpose_last2(T.softmax(scores)))


def attention_results(fn, arrays, proj):
    """fn(f, g, h) and the gradients of <fn(f, g, h), proj> for f, g, h."""
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    T.backward(T.tsum(T.mul(out, T.Tensor(proj))))
    return [out.data] + [t.grad for t in leaves]


def raised_within(seconds, fn):
    """What fn() raised, as a list, run on a thread that must end in time."""
    caught = []

    def run():
        try:
            fn()
        except Exception as exc:
            caught.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    return caught


class TestAttention:
    # (n, k, c, HW, blocks of query rows, queries): every case spans at least
    # two blocks with a partial last one; k = 1 sorts the queries by sign and
    # shifts the keys by their max or min, so it runs with mixed-sign,
    # non-negative, negative and partly zero queries; n = 2 the batch axis
    @pytest.mark.parametrize(
        "n,k,c,hw,blocks,queries",
        [
            (1, 1, 8, 600, 6, "mixed"),
            (1, 1, 8, 600, 6, "nonnegative"),
            (1, 1, 8, 600, 6, "negative"),
            (1, 1, 8, 600, 6, "zeros"),
            (1, 2, 12, 600, 6, "mixed"),
            (2, 1, 4, 520, 5, "mixed"),
            (2, 3, 5, 300, 2, "mixed"),
        ],
    )
    def test_matches_composite_graph(self, n, k, c, hw, blocks, queries):
        rows = T._attn_rows(hw)
        assert -(-hw // rows) == blocks and hw % rows
        rng = np.random.default_rng(hw)
        arrays = [rng.standard_normal(s) for s in ((n, k, hw), (n, k, hw), (n, c, hw))]
        if queries == "nonnegative":
            arrays[0] = np.abs(arrays[0])
        elif queries == "negative":
            arrays[0] = -np.abs(arrays[0])
        elif queries == "zeros":
            arrays[0][..., ::3] = 0.0
        proj = rng.standard_normal((n, c, hw))
        results = [attention_results(fn, arrays, proj) for fn in (T.attention, composite_attention)]
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # k = 1 with mixed-sign queries, k = 2, and n = 2, each over at least
    # four query blocks per item
    @pytest.mark.parametrize("n,k,c,hw", [(1, 1, 8, 600), (1, 2, 12, 600), (2, 1, 4, 520)])
    def test_worker_count_changes_no_bit(self, n, k, c, hw, monkeypatch):
        rng = np.random.default_rng(hw + k)
        f, g, h, proj = (rng.standard_normal(s) for s in ((n, k, hw), (n, k, hw), (n, c, hw), (n, c, hw)))
        step = T._attn_rows(hw)
        assert all(len(T._attn_blocks(f[b], g[b], step)[1]) >= 4 for b in range(n))
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(T, "_WORKERS", workers)
            results.append(attention_results(T.attention, (f, g, h), proj))
        for got in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(got, results[0]))

    def test_call_within_one_block_runs_inline(self, monkeypatch):
        # as at 16×16: k = 1 splits the queries by sign into two blocks, but
        # together they fit in one, so no thread is worth its start-up
        monkeypatch.setattr(T, "_WORKERS", 2)
        monkeypatch.setattr(T, "_Turns", None)  # the threaded path would call it
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal(s) for s in ((1, 1, 256), (1, 1, 256), (1, 8, 256))]
        assert len(T._attn_blocks(arrays[0][0], arrays[1][0], T._attn_rows(256))[1]) == 2
        attention_results(T.attention, arrays, rng.standard_normal((1, 8, 256)))

    # An exception that escaped a worker thread would fail the test as well:
    # the suite's `filterwarnings = error` turns pytest's
    # PytestUnhandledThreadExceptionWarning into an error.
    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_error_reaches_caller(self, workers, monkeypatch):
        monkeypatch.setattr(T, "_WORKERS", workers)
        rng = np.random.default_rng(workers)
        f, g, h = (
            T.Tensor(rng.standard_normal(s), requires_grad=True)
            for s in ((1, 1, 600), (1, 1, 600), (1, 4, 600))
        )
        out = T.attention(f, g, h)
        weights = T._attn_weights
        for call in (lambda: T.attention(f, g, h), lambda: T.backward(T.tsum(out))):
            calls = itertools.count()

            def fail_third_block(*args):
                if next(calls) == 2:
                    raise RuntimeError("third block")
                return weights(*args)

            monkeypatch.setattr(T, "_attn_weights", fail_third_block)
            threads = threading.active_count()
            caught = raised_within(30, call)
            assert [str(exc) for exc in caught] == ["third block"]
            assert threading.active_count() == threads

    def test_forked_child_runs_attention(self, monkeypatch):
        # no worker outlives a call, so a child forked after one inherits no
        # thread, lock or condition that it would wait on
        monkeypatch.setattr(T, "_WORKERS", 2)
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(s) for s in ((1, 1, 600), (1, 1, 600), (1, 4, 600))]
        proj = rng.standard_normal((1, 4, 600))
        threads = threading.active_count()
        want = attention_results(T.attention, arrays, proj)
        assert threading.active_count() == threads
        pid = os.fork()
        if pid == 0:  # the child must never return into pytest
            code = 1
            try:
                got = attention_results(T.attention, arrays, proj)
                code = 0 if all(np.array_equal(a, b) for a, b in zip(got, want)) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child did not finish within 60 s")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    @pytest.mark.parametrize(
        "env,pinned",
        [
            ({}, False),
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4"}, False),
        ],
    )
    def test_blas_pinned_reads_openblas_variables(self, env, pinned, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert T._blas_pinned() is pinned

    @pytest.mark.parametrize(
        "cores,pinned,workers", [(64, True, T.ATTN_MAX_WORKERS), (1, True, 1), (64, False, 1)]
    )
    def test_worker_count_is_capped(self, cores, pinned, workers, monkeypatch):
        # every worker holds its own buffers, so a many-core host must not
        # multiply the memory by its core count
        monkeypatch.setattr(T, "_cores", lambda: cores)
        monkeypatch.setattr(T, "_blas_pinned", lambda: pinned)
        assert T._worker_count() == workers

    @pytest.mark.parametrize("k", [1, 2])
    def test_large_scores_stay_finite(self, k):
        # scores reach |f_i g_j| ≈ 1e3, where exp of an unshifted score overflows
        rng = np.random.default_rng(k)
        f, g = (12.0 * rng.standard_normal((1, k, 300)) for _ in range(2))
        h = rng.standard_normal((1, 4, 300))
        scores = f[0].T @ g[0]
        assert 700 < np.max(np.abs(scores)) < 2000
        with np.errstate(over="raise"):
            got = T.attention(T.Tensor(f), T.Tensor(g), T.Tensor(h)).data
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        want = h[0] @ (p / p.sum(axis=1, keepdims=True)).T
        assert np.isfinite(got).all()
        assert np.max(np.abs(got[0] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gradient(self):
        err = T.grad_check(T.attention, [(1, 2, 37), (1, 2, 37), (1, 3, 37)], seed=10)
        assert err < 1e-4

    def test_shape_mismatch_raises(self):
        f = T.Tensor(np.zeros((1, 2, 9)))
        with pytest.raises(DimensionError):
            T.attention(f, T.Tensor(np.zeros((1, 3, 9))), T.Tensor(np.zeros((1, 4, 9))))
        with pytest.raises(DimensionError):
            T.attention(f, f, T.Tensor(np.zeros((1, 4, 8))))


def dense_separable_filter(x, taps):
    """Reference: conv2d with a diagonal C×C×k×k kernel holding outer(taps, taps)."""
    c, k = x.shape[1], len(taps)
    w = np.zeros((c, c, k, k))
    for i in range(c):
        w[i, i] = np.outer(taps, taps)
    return T.conv2d(x, T.Tensor(w), T.Tensor(np.zeros(c)), stride=1, padding=k // 2)


class TestSeparableFilter:
    # asymmetric taps, so a backward that did not reverse them would show;
    # (1, 2, 24, 40) is longer than the taps on both axes, (2, 3, 6, 9) shorter
    @pytest.mark.parametrize("shape", [(1, 2, 24, 40), (2, 3, 6, 9)])
    def test_matches_dense_conv2d(self, shape):
        rng = np.random.default_rng(shape[2])
        taps = rng.standard_normal(21)
        data, proj = rng.standard_normal(shape), rng.standard_normal(shape)
        results = []
        for fn in (T.separable_filter, dense_separable_filter):
            x = T.Tensor(data, requires_grad=True)
            out = fn(x, taps)
            T.backward(T.tsum(T.mul(out, T.Tensor(proj))))
            results.append((out.data, x.grad))
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gradient(self):
        taps = np.array([0.3, -1.2, 0.7, 2.0, 0.1])
        err = T.grad_check(lambda x: T.separable_filter(x, taps), [(1, 2, 6, 7)], seed=11)
        assert err < 1e-4

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            T.separable_filter(T.Tensor(np.zeros((2, 6, 6))), np.ones(3))
        with pytest.raises(DimensionError):
            T.separable_filter(T.Tensor(np.zeros((1, 2, 6, 6))), np.ones(4))
