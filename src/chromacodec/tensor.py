"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy array (images use N×C×H×W layout) and,
when an operation produces it, remembers its inputs together with a
gradient rule. :func:`backward` walks the recorded graph once in reverse
topological order and accumulates d(loss)/d(leaf) into every leaf that
was created with ``requires_grad=True``.

A graph belongs to the thread that builds it; finished tensors are plain
values and may be shared freely. All arithmetic is double precision so
that finite-difference checks (:func:`grad_check`) are meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError


class Tensor:
    """Dense float64 array plus an optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backprop = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, cut loose from the graph."""
        out = _result(self.data, (), None)
        return out

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # small operator sugar; the named functions below do the real work
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)


def _result(data, parents, backprop) -> Tensor:
    # Internal constructor for op outputs; skips the finiteness scan
    # (enforced at the loss boundary and by the trainer instead).
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    req = any(p.requires_grad for p in parents)
    out.requires_grad = req
    out._parents = tuple(parents) if req else ()
    out._backprop = backprop if req else None
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, order="C")  # a copy: `add` hands one g to both parents
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    `loss` must be scalar and finite. Each graph node is visited exactly
    once, in reverse topological order, so repeated runs over the same
    graph construction are bit-identical.
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("backward called on a non-finite loss")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, children_done = stack.pop()
        if children_done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)


# ---------------------------------------------------------------------------
# elementwise and reduction primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backprop(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _result(data, (a, b), backprop)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def backprop(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, -_unbroadcast(g, b.shape))

    return _result(data, (a, b), backprop)


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product; covers scaling by a learnable scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backprop(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), backprop)


def scale(t: Tensor, k: float) -> Tensor:
    k = float(k)

    def backprop(g):
        _accum(t, g * k)

    return _result(t.data * k, (t,), backprop)


def square(t: Tensor) -> Tensor:
    def backprop(g):
        _accum(t, 2.0 * t.data * g)

    return _result(t.data * t.data, (t,), backprop)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    base = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(base) or any(
            i != axis and s[i] != base[i] for i in range(len(base))
        ):
            bad = next(i for i in range(len(base)) if i != axis and s[i] != base[i])
            raise DimensionError(
                f"concat: operand shape {s} differs from {base} on axis {bad}"
            )
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backprop(g):
        for t, s0, s1 in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(s0), int(s1))
            _accum(t, g[tuple(sl)])

    return _result(data, tuple(tensors), backprop)


def mean(t: Tensor) -> Tensor:
    data = np.asarray(t.data.mean())

    def backprop(g):
        _accum(t, np.full(t.data.shape, float(g) / t.data.size))

    return _result(data, (t,), backprop)


def tsum(t: Tensor) -> Tensor:
    data = np.asarray(t.data.sum())

    def backprop(g):
        _accum(t, np.full(t.data.shape, float(g)))

    return _result(data, (t,), backprop)


def l1_norm(t: Tensor) -> Tensor:
    """Sum of absolute values. Subgradient 0 at exact zeros."""
    data = np.asarray(np.abs(t.data).sum())

    def backprop(g):
        _accum(t, np.sign(t.data) * float(g))

    return _result(data, (t,), backprop)


def l2_norm(t: Tensor) -> Tensor:
    """Euclidean norm sqrt(sum x^2)."""
    v = float(np.sqrt((t.data * t.data).sum()))
    data = np.asarray(v)

    def backprop(g):
        _accum(t, t.data / max(v, 1e-12) * float(g))

    return _result(data, (t,), backprop)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(t: Tensor) -> Tensor:
    data = np.maximum(t.data, 0.0)

    def backprop(g):
        _accum(t, g * (t.data > 0.0))

    return _result(data, (t,), backprop)


LEAK = 0.2  # leaky_relu's negative-side gain, as in DCGAN's discriminator
LOG_FLOOR = 1e-12  # log_floor's input floor


def leaky_relu(t: Tensor) -> Tensor:
    data = np.where(t.data > 0.0, t.data, LEAK * t.data)

    def backprop(g):
        _accum(t, g * np.where(t.data > 0.0, 1.0, LEAK))

    return _result(data, (t,), backprop)


def sigmoid(t: Tensor) -> Tensor:
    e = np.exp(-np.abs(t.data))
    data = np.where(t.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backprop(g):
        _accum(t, g * data * (1.0 - data))

    return _result(data, (t,), backprop)


def tanh(t: Tensor) -> Tensor:
    data = np.tanh(t.data)

    def backprop(g):
        _accum(t, g * (1.0 - data * data))

    return _result(data, (t,), backprop)


def log_floor(t: Tensor) -> Tensor:
    """log(max(x, LOG_FLOOR)); the floor keeps early-training losses finite."""
    m = np.maximum(t.data, LOG_FLOOR)
    data = np.log(m)

    def backprop(g):
        _accum(t, g * (t.data >= LOG_FLOOR) / m)

    return _result(data, (t,), backprop)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax; slices along `axis` sum to 1."""
    x = t.data
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True)

    def backprop(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(t, s * (g - dot))

    return _result(s, (t,), backprop)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(t: Tensor, shape) -> Tensor:
    data = t.data.reshape(shape)

    def backprop(g):
        _accum(t, g.reshape(t.data.shape))

    return _result(data, (t,), backprop)


def transpose_last2(t: Tensor) -> Tensor:
    data = t.data.swapaxes(-1, -2)

    def backprop(g):
        _accum(t, g.swapaxes(-1, -2))

    return _result(data, (t,), backprop)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product (..., n, m) @ (..., m, p); batch dims must match."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError("matmul operands need at least 2 dimensions")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(
            f"matmul: inner axes disagree, {ad.shape[-1]} (a axis {ad.ndim - 1}) "
            f"vs {bd.shape[-2]} (b axis {bd.ndim - 2})"
        )
    if ad.shape[:-2] != bd.shape[:-2]:
        raise DimensionError(
            f"matmul: batch dims {ad.shape[:-2]} vs {bd.shape[:-2]}"
        )
    data = ad @ bd

    def backprop(g):
        _accum(a, g @ bd.swapaxes(-1, -2))
        _accum(b, ad.swapaxes(-1, -2) @ g)

    return _result(data, (a, b), backprop)


def _mm(a, b):
    """a @ b. With inner dimension 1 the product is an outer product, which
    broadcasting forms 5-7× faster than BLAS does."""
    return a * b if a.shape[-1] == 1 else a @ b


# Query rows per block of `attention`: about ATTN_BLOCK score entries (512 KB,
# within a core's L2 at 64×64), but at least ATTN_MIN_ROWS rows, because every
# block adds a full-width update to backward's sums, and at 176×144 those
# updates dominate below that.
ATTN_BLOCK = 1 << 16
ATTN_MIN_ROWS = 16


def _attn_rows(hw):
    """Query rows per block of `attention` at HW keys."""
    return min(hw, max(ATTN_MIN_ROWS, ATTN_BLOCK // hw))


def _attn_blocks(f, g, step):
    """Query order and blocks [(rows, keys)] of that order, for one item's f, g (k, HW).

    With k > 1 the queries keep their order and `keys` is None. With k = 1 the
    score fᵢgⱼ is largest at g's max when fᵢ ≥ 0 and at its min when fᵢ < 0,
    so the queries are sorted by sign and each block carries the key row
    shifted by its extreme: fᵢ·(g − g*) is the max-subtracted score, every
    exponent is ≤ 0 and each row's largest term is exp(0) = 1.
    """
    hw = f.shape[1]
    if f.shape[0] > 1:
        return slice(None), [(slice(a, min(a + step, hw)), None) for a in range(0, hw, step)]
    neg = f[0] < 0
    split = hw - np.count_nonzero(neg)
    blocks = []
    for lo, hi, keys in ((0, split, g - g.max()), (split, hw, g - g.min())):
        blocks += [(slice(a, min(a + step, hi)), keys) for a in range(lo, hi, step)]
    return np.argsort(neg, kind="stable"), blocks


def _attn_weights(fq, g, keys, buf):
    """exp(score − row max), (B, HW) in `buf`, for queries fq (k, B) against g (k, HW)."""
    e = buf[: fq.shape[1]]
    if keys is None:
        np.matmul(fq.T, g, out=e)
        e -= e.max(axis=1, keepdims=True)
    else:
        np.multiply(fq.T, keys, out=e)
    return np.exp(e, out=e)


def attention(f: Tensor, g: Tensor, h: Tensor) -> Tensor:
    """h @ softmax_keys(fᵀ g)ᵀ for f, g (n, k, HW) and h (n, c, HW) → (n, c, HW).

    Query rows are independent, so they are processed in blocks of
    `_attn_rows(HW)` rows and the HW×HW score matrix never exists whole
    (Rabe & Staats 2021). Each block's exponentials e go into one reused
    buffer, and the softmax's row sums z come out of the output product
    [h; 1] @ eᵀ. As in FlashAttention (Dao et al. 2022), backward recomputes
    e instead of keeping it, and with r = Σ_c dO∘O (the row term of the
    softmax gradient) it needs two products per block and never forms the
    scores' gradient: [dO/z; f∘dO/z; f∘r/z] @ e gives dh and dg, and
    e @ [g∘h; g]ᵀ gives df.
    """
    fd, gd, hd = f.data, g.data, h.data
    if fd.ndim != 3 or fd.shape != gd.shape:
        raise DimensionError(
            f"attention: f and g must share one (n, k, HW) shape, got {fd.shape} and {gd.shape}"
        )
    if hd.ndim != 3 or hd.shape[0] != fd.shape[0] or hd.shape[2] != fd.shape[2]:
        raise DimensionError(
            f"attention: h must be (n, c, HW) with n, HW of f {fd.shape}, got {hd.shape}"
        )
    n, k, hw = fd.shape
    c = hd.shape[1]
    step = _attn_rows(hw)
    buf = np.empty((step, hw))  # each block's e; backward takes its own, so the graph keeps none
    out = np.empty(hd.shape)
    plans = []  # per item: query order, blocks, sorted queries, row sums
    for b in range(n):
        order, blocks = _attn_blocks(fd[b], gd[b], step)
        fq = fd[b][:, order]
        hx = np.concatenate([hd[b], np.ones((1, hw))])
        r = np.empty((c + 1, hw))
        for rows, keys in blocks:
            r[:, rows] = hx @ _attn_weights(fq[:, rows], gd[b], keys, buf).T
        out[b][:, order] = r[:c] / r[c]
        plans.append((order, blocks, fq, r[c].copy()))

    def backprop(gout):
        df, dg, dh = np.empty_like(fd), np.empty_like(gd), np.empty_like(hd)
        buf = np.empty((step, hw))
        for b, (order, blocks, fq, z) in enumerate(plans):
            go = gout[b][:, order] / z
            rz = (gout[b] * out[b]).sum(axis=0)[order] / z
            lhs = np.concatenate([go, (fq[:, None] * go).reshape(k * c, hw), fq * rz])
            rhs = np.concatenate([(gd[b][:, None] * hd[b]).reshape(k * c, hw), gd[b]]).T
            acc, part = np.zeros((2, len(lhs), hw))
            dfq = np.empty((k, hw))
            for rows, keys in blocks:
                e = _attn_weights(fq[:, rows], gd[b], keys, buf)
                acc += np.matmul(lhs[:, rows], e, out=part)
                q = e @ rhs
                dfq[:, rows] = (go[:, rows] * q[:, : k * c].T.reshape(k, c, -1)).sum(axis=1)
                dfq[:, rows] -= rz[rows] * q[:, k * c :].T
            dh[b] = acc[:c]
            dg[b] = (acc[c : c + k * c].reshape(k, c, hw) * hd[b]).sum(axis=1) - acc[c + k * c :]
            df[b][:, order] = dfq
        _accum(f, df)
        _accum(g, dg)
        _accum(h, dh)

    return _result(out, (f, g, h), backprop)


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def _im2col(x, k, stride, padding):
    """x's k×k windows as columns, (n, C·k·k, oh·ow), and (oh, ow).

    The columns are one copy of a strided view of the padded input; for
    k = 1, stride 1 and no padding they are a reshape of x itself.
    """
    n, c, h, wdt = x.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wdt + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise DimensionError(
            f"conv: kernel {k} does not fit input {h}×{wdt} with padding {padding}"
        )
    xp = x
    if padding:  # by hand: np.pad costs about 40 µs more per call
        xp = np.zeros((n, c, h + 2 * padding, wdt + 2 * padding))
        xp[:, :, padding : padding + h, padding : padding + wdt] = x
    s = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, k, k, oh, ow),
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
        writeable=False,
    )
    return win.reshape(n, c * k * k, oh * ow), (oh, ow)


def _conv_fwd(x, w, stride, padding):
    cols, (oh, ow) = _im2col(x, w.shape[2], stride, padding)
    out = _mm(w.reshape(w.shape[0], -1), cols)
    return out.reshape(x.shape[0], w.shape[0], oh, ow)


def _conv_dw(x, g, k, stride, padding):
    # cols is rebuilt here rather than kept from forward, so training holds
    # no k²-times copy of each activation between the two passes
    n, cout = g.shape[:2]
    cols, _ = _im2col(x, k, stride, padding)
    dw = (g.reshape(n, cout, -1) @ cols.swapaxes(1, 2)).sum(axis=0)
    return dw.reshape(cout, x.shape[1], k, k)


def _conv_dx(g, w, x_shape, stride, padding):
    """Input gradient of the convolution of an x of `x_shape` with w.

    At stride 1 this is the forward convolution of g with w flipped and
    its channel axes swapped, padded by k - 1 - padding. Otherwise Wᵀ @ g
    gives the columns, and col2im adds them back with k² strided adds.
    """
    n, c, h, wdt = x_shape
    cout, _, k, _ = w.shape
    if stride == 1 and padding < k:
        # contiguous: BLAS refuses the flipped view's negative strides
        w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].swapaxes(0, 1))
        return _conv_fwd(g, w_flip, 1, k - 1 - padding)
    oh, ow = g.shape[2], g.shape[3]
    dcols = _mm(w.reshape(cout, -1).T, g.reshape(n, cout, -1)).reshape(n, c, k, k, oh, ow)
    dxp = np.zeros((n, c, h + 2 * padding, wdt + 2 * padding))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                dcols[:, :, i, j]
            )
    if padding:
        return dxp[:, :, padding : padding + h, padding : padding + wdt]
    return dxp


def _check_conv(op, xd, wd, b, cin_axis):
    """Shapes shared by conv2d (cin_axis 1) and conv_transpose2d (cin_axis 0)."""
    cout_axis = 1 - cin_axis
    layout = "Cout×Cin×k×k" if cin_axis else "Cin×Cout×k×k"
    if xd.ndim != 4:
        raise DimensionError(f"{op}: input must be N×C×H×W, got {xd.shape}")
    if wd.ndim != 4 or wd.shape[2] != wd.shape[3]:
        raise DimensionError(f"{op}: weights must be {layout}, got {wd.shape}")
    if xd.shape[1] != wd.shape[cin_axis]:
        raise DimensionError(
            f"{op}: input channels {xd.shape[1]} (axis 1) != kernel Cin {wd.shape[cin_axis]}"
        )
    if b.data.shape != (wd.shape[cout_axis],):
        raise DimensionError(
            f"{op}: bias shape {b.data.shape} != ({wd.shape[cout_axis]},) (axis {cout_axis})"
        )


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution, weights (Cout, Cin, k, k), square kernels."""
    xd, wd = x.data, w.data
    _check_conv("conv2d", xd, wd, b, cin_axis=1)
    k = wd.shape[2]
    out = _conv_fwd(xd, wd, stride, padding)
    out += b.data.reshape(1, -1, 1, 1)

    def backprop(g):
        _accum(b, g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            _accum(w, _conv_dw(xd, g, k, stride, padding))
        if x.requires_grad:
            _accum(x, _conv_dx(g, wd, xd.shape, stride, padding))

    return _result(out, (x, w, b), backprop)


def _band(n, taps):
    """n×n matrix M with M[i, j] = taps[j - i + r]: M @ v correlates v with taps."""
    r = len(taps) // 2
    idx = np.arange(n)
    t = idx[None, :] - idx[:, None] + r
    inside = (t >= 0) & (t < len(taps))
    return np.where(inside, taps[np.clip(t, 0, len(taps) - 1)], 0.0)


def separable_filter(x: Tensor, taps) -> Tensor:
    """Same-size, zero-padded correlation of each channel with outer(taps, taps).

    `taps` is a constant odd-length 1-D array. The filter is applied as
    rows @ x @ colsᵀ with banded rows (H×H) and cols (W×W), so backward
    is the exact adjoint rowsᵀ @ g @ cols.
    """
    xd = x.data
    taps = np.asarray(taps, dtype=np.float64)
    if xd.ndim != 4:
        raise DimensionError(f"separable_filter: input must be N×C×H×W, got {xd.shape}")
    if taps.ndim != 1 or len(taps) % 2 == 0:
        raise DimensionError(f"separable_filter: taps must be 1-D of odd length, got {taps.shape}")
    rows = _band(xd.shape[2], taps)
    cols = _band(xd.shape[3], taps)

    def backprop(g):
        _accum(x, rows.T @ g @ cols)

    return _result(rows @ xd @ cols.T, (x,), backprop)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """Transposed convolution, weights (Cin, Cout, k, k), no padding.

    Output spatial size is (H-1)·stride + k. The op is the adjoint of the
    conv2d whose (Cout, Cin, k, k) weights are this op's (Cin, Cout, k, k)
    array, so it runs on conv2d's kernels with their roles swapped:
    forward is conv2d's input gradient, the input gradient is conv2d's
    forward, and the weight gradient is conv2d's with x and g exchanged.
    """
    xd, wd = x.data, w.data
    _check_conv("conv_transpose2d", xd, wd, b, cin_axis=0)
    n, _, h, wdt = xd.shape
    k = wd.shape[2]
    out_shape = (n, wd.shape[1], (h - 1) * stride + k, (wdt - 1) * stride + k)
    out = _conv_dx(xd, wd, out_shape, stride, 0)
    out += b.data.reshape(1, -1, 1, 1)

    def backprop(g):
        _accum(b, g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            _accum(w, _conv_dw(g, xd, k, stride, 0))
        if x.requires_grad:
            _accum(x, _conv_fwd(g, wd, stride, 0))

    return _result(out, (x, w, b), backprop)


def maxpool2(x: Tensor) -> Tensor:
    """2×2 stride-2 max pooling; gradient goes to the first max in row-major scan."""
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2: spatial dims must be even, got {h}×{w}")
    blocks = (
        x.data.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // 2, w // 2, 4)
    )
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def backprop(g):
        db = np.zeros_like(blocks)
        np.put_along_axis(db, idx[..., None], g[..., None], axis=-1)
        dx = (
            db.reshape(n, c, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        _accum(x, dx)

    return _result(out, (x,), backprop)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(
    fn,
    shapes,
    seed: int = 0,
    h: float = 1e-5,
    max_coords: int = 64,
    floor: float = 1e-8,
) -> float:
    """Compare analytic gradients of `fn` against central differences.

    `shapes` is a list whose entries are either shape tuples (filled with
    seeded standard-normal leaves) or ready-made Tensors (checked as
    given, letting callers probe network weights). If `fn` returns a
    non-scalar, it is projected onto a fixed random direction so every
    output element influences the loss. Returns the max relative error,
    |analytic - numeric| / max(|analytic|, |numeric|, floor).
    """
    rng = np.random.default_rng(seed)
    inputs = []
    for s in shapes:
        if isinstance(s, Tensor):
            inputs.append(s)
        else:
            inputs.append(Tensor(rng.standard_normal(s), requires_grad=True))

    proj = None

    def run():
        nonlocal proj
        out = fn(*inputs)
        if out.data.size == 1:
            return out
        if proj is None:
            proj = Tensor(np.random.default_rng(seed + 1).standard_normal(out.shape))
        return tsum(mul(out, proj))

    for t in inputs:
        t.zero_grad()
    loss = run()
    backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    worst = 0.0
    for t, ga in zip(inputs, analytic):
        if not t.requires_grad:
            continue
        total = t.data.size
        if total <= max_coords:
            coords = np.arange(total)
        else:
            coords = rng.choice(total, size=max_coords, replace=False)
        flat = t.data.reshape(-1)
        for ci in coords:
            orig = flat[ci]
            flat[ci] = orig + h
            fp = float(run().data)
            flat[ci] = orig - h
            fm = float(run().data)
            flat[ci] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(ga.reshape(-1)[ci])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst = max(worst, rel)
    return worst
