"""Autodiff engine checks against independent oracles.

Convolutions are compared with direct nested-loop implementations (a
scatter loop for the transposed one), gradients with central finite
differences, and the transposed convolution also with the adjoint
identity <conv(x), y> == <x, conv_t(y)>.
"""

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


class TestActivations:
    def test_softmax_known_values(self):
        # softmax([0, ln 3]) = [1/4, 3/4]
        s = T.softmax(T.Tensor([0.0, np.log(3.0)]))
        assert np.allclose(s.data, [0.25, 0.75], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.standard_normal((3, 7, 5)) * 50.0)
        s = T.softmax(x, axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        a = T.softmax(T.Tensor(x), axis=-1).data
        b = T.softmax(T.Tensor(x + 123.0), axis=-1).data
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
    def test_kernels_match_loops(self, cin, cout, k, stride, padding):
        rng = np.random.default_rng(cin * 1000 + cout * 10 + k)
        x = rng.standard_normal((2, cin, 7, 6))
        w = rng.standard_normal((cout, cin, k, k))
        out = T._conv_fwd(x, w, stride, padding)
        assert np.max(np.abs(out - loop_conv2d(x, w, None, stride, padding))) <= 1e-12
        g = rng.standard_normal(out.shape)
        dx = T._conv_dx(g, w, x.shape, stride, padding)
        assert np.max(np.abs(dx - loop_conv_dx(g, w, x.shape, stride, padding))) <= 1e-12
        dw = T._conv_dw(x, g, k, stride, padding)
        assert np.max(np.abs(dw - loop_conv_dw(x, g, k, stride, padding))) <= 1e-12

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
    def test_transpose_matches_scatter_loop(self, stride, k):
        # overlapping patches (k > stride), exact tiling (k == stride) and gaps (k < stride)
        rng = np.random.default_rng(20 + 10 * stride + k)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((3, 2, k, k))
        b = rng.standard_normal(2)
        got = T.conv_transpose2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride).data
        want = loop_conv_transpose2d(x, w, b, stride)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

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

    def test_maxpool_odd_input_raises(self):
        with pytest.raises(DimensionError):
            T.maxpool2(T.Tensor(np.zeros((1, 1, 3, 4))))


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
        err = T.grad_check(lambda x: T.softmax(x, axis=-1), [(3, 6)], seed=4)
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
    return T.matmul(h, T.transpose_last2(T.softmax(scores, axis=-1)))


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
        results = []
        for fn in (T.attention, composite_attention):
            leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*leaves)
            T.backward(T.tsum(T.mul(out, T.Tensor(proj))))
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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
    # asymmetric taps, so a transposed band in backward would show; (1, 2, 24, 40)
    # cuts the band at both edges, (2, 3, 6, 9) has taps longer than H and W
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
