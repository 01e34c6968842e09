"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy array (images use N×C×H×W layout) and a
graph node. When an operation produces a tensor, its node records the
nodes of the operation's inputs together with a gradient rule. A node
holds a gradient, never a value: each rule keeps only the arrays its
gradient reads (the save-for-backward pattern of PyTorch's autograd), so
an op output that no rule reads is freed as soon as forward drops it.
One helper, :func:`_op`, wires every op's rule except `attention`'s: an
op gives it one gradient function per input, and the helper keeps and
calls only those of inputs that need a gradient.
:func:`backward` walks the recorded graph once in reverse topological
order, accumulates d(loss)/d(leaf) into every leaf that was created with
``requires_grad=True``, and frees each node as it goes.

A graph belongs to the thread that builds it; finished tensors are plain
values and may be shared freely. All arithmetic is double precision so
that finite-difference checks (:func:`grad_check`) are meaningful.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import DimensionError, NumericError


class Node:
    """One vertex of the graph: a gradient, the parents' nodes and the rule
    that hands a gradient on to them. It holds no forward value."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, requires_grad: bool, parents=(), backprop=None):
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backprop = backprop


class Tensor:
    """Dense float64 array plus its graph node, which carries the gradient."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.node = Node(bool(requires_grad))

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    # the graph as seen from its values, for tools that walk or wrap it
    @property
    def _parents(self):
        return self.node._parents

    @property
    def _backprop(self):
        return self.node._backprop

    @_backprop.setter
    def _backprop(self, rule):
        self.node._backprop = rule

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return self.data.item()

    def detach(self) -> "Tensor":
        """Same values, cut loose from the graph."""
        return _result(self.data, (), None)

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
    # `parents` are nodes, and `backprop` must close over nodes, shapes
    # and the arrays it reads, never over a Tensor, which would keep its
    # value alive until backward.
    out = Tensor.__new__(Tensor)
    out.data = data
    req = any(p.requires_grad for p in parents)
    out.node = Node(req, tuple(parents), backprop) if req else Node(False)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data, inputs, *grads) -> Tensor:
    """The output of an op on `inputs` whose rule hands input i grads[i](g).

    A grad runs only for an input whose node needs a gradient; the grads of
    the others are dropped here, when the node is recorded, so the arrays
    they alone close over are freed with the forward values. A grad returns
    a new array, g itself, or a view of g that no other grad's view
    overlaps (concat's slices). `_accum` keeps the first array a node is
    handed, so g itself goes to one input only and any later input gets a
    copy. Grads close over shapes and the arrays they read, never over a
    Tensor, as `_result` asks of a rule.
    """
    nodes = tuple(t.node for t in inputs)
    grads = tuple(grad if node.requires_grad else None for node, grad in zip(nodes, grads))

    def backprop(g):
        handed = False
        for node, grad in zip(nodes, grads):
            if grad is not None:
                gi = grad(g)
                if gi is g:
                    gi, handed = (g.copy() if handed else g), True
                _accum(node, gi)

    return _result(data, nodes, backprop)


def _accum(node: Node, g):
    """Add g into node.grad. The first g is kept as it is, not copied, so a
    gradient rule hands each region of a buffer to one parent only, and
    later calls add into that buffer in place."""
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g


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

    Backward consumes the graph. Once a node's rule has run, the node
    drops its gradient, its rule (which holds the forward arrays it
    needs) and its parents, so a pass holds only the gradients still
    pending and the forward arrays not yet used. Leaves keep their .grad.
    To differentiate again, build the graph again.
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("backward called on a non-finite loss")

    topo = []
    visited = set()
    stack = [(loss.node, False)]
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

    loss.node.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backprop is None:
            continue  # a leaf
        if node.grad is not None:
            node._backprop(node.grad)
        node.grad = node._backprop = None
        node._parents = ()


# ---------------------------------------------------------------------------
# elementwise and reduction primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    return _op(a.data + b.data, (a, b), lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    return _op(a.data - b.data, (a, b), lambda g: _unbroadcast(g, sa), lambda g: -_unbroadcast(g, sb))


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product; covers scaling by a learnable scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    return _op(
        ad * bd,
        (a, b),
        lambda g: _unbroadcast(g * bd, ad.shape),
        lambda g: _unbroadcast(g * ad, bd.shape),
    )


def scale(t: Tensor, k: float) -> Tensor:
    k = float(k)
    return _op(t.data * k, (t,), lambda g: g * k)


def square(t: Tensor) -> Tensor:
    x = t.data
    return _op(x * x, (t,), lambda g: 2.0 * x * g)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    base = tensors[0].data.shape
    if not -len(base) <= axis < len(base):
        raise DimensionError(f"concat: axis {axis} out of range for rank {len(base)}")
    axis %= len(base)
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(base):
            raise DimensionError(f"concat: operand rank {len(s)} differs from {len(base)}")
        for i in range(len(base)):
            if i != axis and s[i] != base[i]:
                raise DimensionError(f"concat: operand shape {s} differs from {base} on axis {i}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def part(s0, s1):
        sl = [slice(None)] * len(base)
        sl[axis] = slice(int(s0), int(s1))
        sl = tuple(sl)
        return lambda g: g[sl]

    return _op(data, tensors, *map(part, offsets[:-1], offsets[1:]))


def mean(t: Tensor) -> Tensor:
    shape, size = t.shape, t.size
    return _op(np.asarray(t.data.mean()), (t,), lambda g: np.full(shape, float(g) / size))


def tsum(t: Tensor) -> Tensor:
    shape = t.shape
    return _op(np.asarray(t.data.sum()), (t,), lambda g: np.full(shape, float(g)))


def l1_norm(t: Tensor) -> Tensor:
    """Sum of absolute values. Subgradient 0 at exact zeros."""
    x = t.data
    return _op(np.asarray(np.abs(x).sum()), (t,), lambda g: np.sign(x) * float(g))


def l2_norm(t: Tensor) -> Tensor:
    """Euclidean norm sqrt(sum x^2)."""
    x = t.data
    v = float(np.sqrt((x * x).sum()))
    return _op(np.asarray(v), (t,), lambda g: x / max(v, 1e-12) * float(g))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

# relu and leaky_relu keep only a one-byte mask, output > 0, and only when
# the output is recorded: max(x, 0) > 0 and where(x > 0, x, 0.2x) > 0 each
# hold exactly when x > 0, and neither the input nor the float64 output
# need be kept for the gradient.

def relu(t: Tensor) -> Tensor:
    data = np.maximum(t.data, 0.0)
    mask = data > 0.0 if t.requires_grad else None
    return _op(data, (t,), lambda g: g * mask)


LEAK = 0.2  # leaky_relu's negative-side gain, as in DCGAN's discriminator
LOG_FLOOR = 1e-12  # log_floor's input floor


def leaky_relu(t: Tensor) -> Tensor:
    data = np.where(t.data > 0.0, t.data, LEAK * t.data)
    mask = data > 0.0 if t.requires_grad else None
    return _op(data, (t,), lambda g: g * np.where(mask, 1.0, LEAK))


def sigmoid(t: Tensor) -> Tensor:
    e = np.exp(-np.abs(t.data))
    data = np.where(t.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _op(data, (t,), lambda g: g * data * (1.0 - data))


def tanh(t: Tensor) -> Tensor:
    data = np.tanh(t.data)
    return _op(data, (t,), lambda g: g * (1.0 - data * data))


def log_floor(t: Tensor) -> Tensor:
    """log(max(x, LOG_FLOOR)); the floor keeps early-training losses finite."""
    x = t.data
    m = np.maximum(x, LOG_FLOOR)
    return _op(np.log(m), (t,), lambda g: g * (x >= LOG_FLOOR) / m)


def softmax(t: Tensor) -> Tensor:
    """Max-subtracted softmax; slices along the last axis sum to 1."""
    x = t.data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    return _op(s, (t,), lambda g: s * (g - (g * s).sum(axis=-1, keepdims=True)))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(t: Tensor, shape) -> Tensor:
    old = t.shape
    return _op(t.data.reshape(shape), (t,), lambda g: g.reshape(old))


def transpose_last2(t: Tensor) -> Tensor:
    return _op(t.data.swapaxes(-1, -2), (t,), lambda g: g.swapaxes(-1, -2))


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
    return _op(ad @ bd, (a, b), lambda g: g @ bd.swapaxes(-1, -2), lambda g: ad.swapaxes(-1, -2) @ g)


def _mm(a, b, out=None):
    """a @ b. With inner dimension 1 the product is an outer product, which
    broadcasting forms 5-7× faster than BLAS does."""
    if a.shape[-1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


# Entries of one block of the blocked kernels: score entries of `attention`'s
# query rows, and im2col columns of a convolution's output rows. 2^16 float64
# entries are 512 KB, within a core's L2, so a block is still cached when
# the matrix product reads it.
BLOCK_ENTRIES = 1 << 16
# At least this many query rows per block of `attention`, because every
# block adds a full-width update to backward's sums, and at 176×144 those
# updates dominate below that.
ATTN_MIN_ROWS = 16


def _blas_pinned():
    """Whether OpenBLAS runs one thread. It reads these variables when it
    loads, in this order, and takes the first positive one."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def _cores():
    """Cores this process may run on; all of the machine's where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# `attention`'s query blocks fall into this many fixed shares, even and odd
# blocks, and at most this many threads run them, one share each. Each thread
# holds its own e buffer and, in backward, its own buffer for a block's part
# of the sums: step + (k + 1)c + k rows of HW floats, 1.07 MB at HW 4096 with
# c = 8 and k = 1. Two is the count measured, and `_run_shares` runs two.
ATTN_MAX_WORKERS = 2


def _worker_count():
    """Threads that share `attention`'s query blocks: the cores this process
    may use up to ATTN_MAX_WORKERS, but only when BLAS runs one thread. An
    unpinned OpenBLAS's own threads compete for the same cores, and the
    split then runs slower than one thread."""
    return min(ATTN_MAX_WORKERS, _cores()) if _blas_pinned() else 1


_WORKERS = _worker_count()


def _attn_rows(hw):
    """Query rows per block of `attention` at HW keys."""
    return min(hw, max(ATTN_MIN_ROWS, BLOCK_ENTRIES // hw))


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


def _run_shares(kernel, workers):
    """kernel(s, w) for the two shares s of `attention`'s query blocks, even
    and odd. One worker (w = 0) runs share 0 and then share 1 on the calling
    thread. Two run share 1 on a thread of its own (w = 1) that ends before
    this returns, so no worker ever waits on another. The first exception
    reaches the caller: share 0's if both raise.
    """
    if workers == 1:
        kernel(0, 0)
        kernel(1, 0)
        return
    errors = []

    def run():
        try:
            kernel(1, 1)
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        kernel(0, 0)
    finally:
        thread.join()
    if errors:
        raise errors[0]


# np.matmul and np.dot give the same bits in the block kernels, but not the
# same speed (NumPy 2.4.6, OpenBLAS 0.3.31, 2 cores). The two products that
# sum over all HW keys, [h; 1] @ eᵀ and e @ [g∘h; g]ᵀ, use np.dot: np.matmul
# ran them no faster on two threads than on one, np.dot 1.7x faster. The
# others sum over k or a block's rows, and there np.matmul ran 10-40% faster
# than np.dot, on one thread and on two.
def attention(f: Tensor, g: Tensor, h: Tensor) -> Tensor:
    """h @ softmax_keys(fᵀ g)ᵀ for f, g (n, k, HW) and h (n, c, HW) → (n, c, HW).

    Query rows are independent, so they are processed in blocks of
    `_attn_rows(HW)` rows and the HW×HW score matrix never exists whole
    (Rabe & Staats 2021). Each block's exponentials e go into a reused
    buffer, and the softmax's row sums z come out of the output product
    [h; 1] @ eᵀ. As in FlashAttention (Dao et al. 2022), backward recomputes
    e instead of keeping it, and with r = Σ_c dO∘O (the row term of the
    softmax gradient) it needs two products per block and never forms the
    scores' gradient: [dO/z; f∘dO/z; f∘r/z] @ e gives dh and dg, and
    e @ [g∘h; g]ᵀ gives df.

    The blocks fall into two fixed shares, even and odd, as FlashAttention-2
    (Dao 2023) splits its work across query blocks: `_WORKERS` threads run
    them (one unless BLAS runs one thread), each worker with its own e
    buffer. A block writes only its own columns of the output and of df.
    Backward sums each share's parts of the dh and dg sums in block order
    into the share's own accumulator and adds the two once at the end, so the
    sums round the same however many threads ran the shares (Demmel & Nguyen
    2013) and the result does not depend on the worker count.
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
    plans = [_attn_blocks(fd[b], gd[b], step) for b in range(n)]  # per item: query order, blocks
    # One worker per block of a k > 1 split at most, so that a call whose
    # queries fit in one block runs inline even when k = 1 splits it by sign
    workers = min(_WORKERS, -(-hw // step))
    bufs = np.empty((workers, step, hw))  # e per worker; backward takes its own, the graph none
    out = np.empty(hd.shape)
    for b, (order, blocks) in enumerate(plans):
        fq = fd[b][:, order]
        hx = np.concatenate([hd[b], np.ones((1, hw))])
        r = np.empty((c + 1, hw))

        def forward(s, w):
            """r[:, rows] = [h; 1] @ eᵀ for each block of share s, e in bufs[w]."""
            for rows, keys in blocks[s::ATTN_MAX_WORKERS]:
                r[:, rows] = np.dot(hx, _attn_weights(fq[:, rows], gd[b], keys, bufs[w]).T)

        _run_shares(forward, workers)
        out[b][:, order] = r[:c] / r[c]
        plans[b] += (fq, r[c].copy())  # sorted queries, row sums
    nf, ng, nh = f.node, g.node, h.node

    def backprop(gout):
        df, dg, dh = np.empty_like(fd), np.empty_like(gd), np.empty_like(hd)
        bufs = np.empty((workers, step, hw))
        parts = np.empty((workers, c + k * c + k, hw))  # each block's part of its share's sum
        for b, (order, blocks, fq, z) in enumerate(plans):
            go = gout[b][:, order] / z
            rz = (gout[b] * out[b]).sum(axis=0)[order] / z
            rhs = np.concatenate([(gd[b][:, None] * hd[b]).reshape(k * c, hw), gd[b]]).T
            accs = np.zeros((ATTN_MAX_WORKERS, c + k * c + k, hw))  # one sum per share
            dfq = np.empty((k, hw))

            def backward(s, w):
                """dfq's columns and accs[s] += [go; f∘go; f∘rz] @ e for each
                block of share s, in block order, each block building its own
                columns of the left factor."""
                for rows, keys in blocks[s::ATTN_MAX_WORKERS]:
                    e = _attn_weights(fq[:, rows], gd[b], keys, bufs[w])
                    gob = go[:, rows]
                    fgo = (fq[:, None, rows] * gob).reshape(k * c, -1)
                    np.matmul(np.concatenate([gob, fgo, fq[:, rows] * rz[rows]]), e, out=parts[w])
                    accs[s] += parts[w]
                    q = np.dot(e, rhs)
                    dfq[:, rows] = (gob * q[:, : k * c].T.reshape(k, c, -1)).sum(axis=1)
                    dfq[:, rows] -= rz[rows] * q[:, k * c :].T

            _run_shares(backward, workers)
            acc = accs[0]
            acc += accs[1]
            dh[b] = acc[:c]
            dg[b] = (acc[c : c + k * c].reshape(k, c, hw) * hd[b]).sum(axis=1) - acc[c + k * c :]
            df[b][:, order] = dfq
        _accum(nf, df)
        _accum(ng, dg)
        _accum(nh, dh)

    return _result(out, (nf, ng, nh), backprop)


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def _zero_pad(x, p):
    """x with p zeros on both sides of its last two axes (np.pad is about 40 µs slower)."""
    xp = np.zeros(x.shape[:-2] + (x.shape[-2] + 2 * p, x.shape[-1] + 2 * p))
    xp[..., p : xp.shape[-2] - p, p : xp.shape[-1] - p] = x
    return xp


def _correlate_valid(x, taps):
    """Valid correlation of x's last two axes with outer(taps, taps): two 1-D passes
    over sliding windows (last axis, then the one before), copying no window out."""
    rows = np.lib.stride_tricks.sliding_window_view(x, len(taps), axis=-1) @ taps
    return np.lib.stride_tricks.sliding_window_view(rows, len(taps), axis=-2) @ taps


def _im2col(x, k, stride, padding):
    """x's k×k windows, the output rows per block of columns, and the block buffer.

    The windows are a strided (n, C, k, k, oh, ow) view of the padded
    input. A block of output rows unrolls into the buffer as columns
    (Chellapilla et al. 2006; one block at a time as in Anderson et al.
    2017), so a block holds at most about BLOCK_ENTRIES entries and stays
    in L2 for the matrix product that reads it. For k = 1, stride 1 and no
    padding the columns are a reshape of x itself: one block and no buffer.
    """
    n, c, h, wdt = x.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wdt + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise DimensionError(
            f"conv: kernel {k} does not fit input {h}×{wdt} with padding {padding}"
        )
    if k == 1 and stride == 1 and not padding:
        return x.reshape(n, c, 1, 1, h, wdt), oh, None
    xp = _zero_pad(x, padding) if padding else np.ascontiguousarray(x)
    s = xp.strides
    # a view of xp's buffer, which checks the strides stay inside it;
    # as_strided makes the same view about 6 µs slower
    win = np.ndarray(
        (n, c, k, k, oh, ow),
        buffer=xp,
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
    )
    win.flags.writeable = False  # its windows overlap
    rows = min(oh, max(1, BLOCK_ENTRIES // (n * c * k * k * ow)))
    return win, rows, np.empty(n * c * k * k * rows * ow)


def _cols(win, r0, r1, buf):
    """Output rows r0:r1 of the windows as columns, (n, C·k·k, (r1 − r0)·ow)."""
    n, c, k, _, _, ow = win.shape
    if buf is None:
        return win[:, :, 0, 0, r0:r1].reshape(n, c, -1)
    cols = buf[: n * c * k * k * (r1 - r0) * ow].reshape(n, c, k, k, r1 - r0, ow)
    cols[...] = win[..., r0:r1, :]
    return cols.reshape(n, c * k * k, -1)


def _conv_fwd(x, w, stride, padding):
    n, cout = x.shape[0], w.shape[0]
    win, rows, buf = _im2col(x, w.shape[2], stride, padding)
    oh, ow = win.shape[4:]
    w2 = w.reshape(cout, -1)
    out = np.empty((n, cout, oh, ow))
    flat = out.reshape(n, cout, oh * ow)
    for r0 in range(0, oh, rows):
        r1 = min(r0 + rows, oh)
        _mm(w2, _cols(win, r0, r1, buf), out=flat[:, :, r0 * ow : r1 * ow])
    return out


def _conv_dw(x, g, k, stride, padding):
    # cols is rebuilt here rather than kept from forward, so training holds
    # no k²-times copy of each activation between the two passes
    n, cout = g.shape[:2]
    win, rows, buf = _im2col(x, k, stride, padding)
    oh, ow = win.shape[4:]
    g3 = g.reshape(n, cout, oh * ow)
    dw = np.zeros((cout, x.shape[1] * k * k))
    for r0 in range(0, oh, rows):
        r1 = min(r0 + rows, oh)
        cols = _cols(win, r0, r1, buf)
        dw += (g3[:, :, r0 * ow : r1 * ow] @ cols.swapaxes(1, 2)).sum(axis=0)
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
    k, x_shape = wd.shape[2], xd.shape  # only the weight gradient reads xd
    out = _conv_fwd(xd, wd, stride, padding)
    out += b.data.reshape(1, -1, 1, 1)
    return _op(
        out,
        (x, w, b),
        lambda g: _conv_dx(g, wd, x_shape, stride, padding),
        lambda g: _conv_dw(xd, g, k, stride, padding),
        lambda g: g.sum(axis=(0, 2, 3)),
    )


def separable_filter(x: Tensor, taps) -> Tensor:
    """Same-size, zero-padded correlation of each channel with outer(taps, taps).

    `taps` is a constant odd-length 1-D array. Forward is the valid
    correlation of x zero-padded by len(taps) // 2; backward is the same
    correlation of g with the taps reversed, which is its exact adjoint.
    """
    xd = x.data
    taps = np.asarray(taps, dtype=np.float64)
    if xd.ndim != 4:
        raise DimensionError(f"separable_filter: input must be N×C×H×W, got {xd.shape}")
    if taps.ndim != 1 or len(taps) % 2 == 0:
        raise DimensionError(f"separable_filter: taps must be 1-D of odd length, got {taps.shape}")
    r = len(taps) // 2
    return _op(
        _correlate_valid(_zero_pad(xd, r), taps),
        (x,),
        lambda g: _correlate_valid(_zero_pad(g, r), taps[::-1]),
    )


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
    return _op(
        out,
        (x, w, b),
        lambda g: _conv_fwd(g, wd, stride, 0),
        lambda g: _conv_dw(g, xd, k, stride, 0),
        lambda g: g.sum(axis=(0, 2, 3)),
    )


def maxpool2(x: Tensor) -> Tensor:
    """2×2 stride-2 max pooling; gradient goes to the first max in row-major scan.

    The pool is taken over the four strided quarter views of x, so nothing
    is copied or saved: backward finds each window's first max again by
    comparing the quarters with the output in scan order. On a tie
    np.maximum returns its second operand, so each pair is passed later
    element first and a window of signed zeros keeps its first one.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"maxpool2: input must be N×C×H×W, got {xd.shape}")
    _, _, h, w = xd.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2: spatial dims must be even, got {h}×{w}")
    q = {(i, j): xd[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)}  # scan order
    out = np.maximum(np.maximum(q[1, 1], q[1, 0]), np.maximum(q[0, 1], q[0, 0]))

    def grad(g):
        dx = np.zeros(xd.shape)
        free = np.ones(out.shape, dtype=bool)  # windows whose max is not found yet
        for (i, j), v in q.items():
            hit = free & (v == out)
            np.copyto(dx[:, :, i::2, j::2], g, where=hit)
            free ^= hit
        return dx

    return _op(out, (x,), grad)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

FD_STEP = 1e-5  # central-difference step
FD_FLOOR = 1e-8  # relative errors are taken against at least this magnitude


def grad_check(fn, shapes, seed: int = 0, max_coords: int = 64) -> float:
    """Compare analytic gradients of `fn` against central differences.

    `shapes` is a list whose entries are either shape tuples (filled with
    seeded standard-normal leaves) or ready-made Tensors (checked as
    given, letting callers probe network weights). If `fn` returns a
    non-scalar, it is projected onto a fixed random direction so every
    output element influences the loss. Returns the max relative error,
    |analytic - numeric| / max(|analytic|, |numeric|, FD_FLOOR).
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
            flat[ci] = orig + FD_STEP
            fp = run().data.item()
            flat[ci] = orig - FD_STEP
            fm = run().data.item()
            flat[ci] = orig
            numeric = (fp - fm) / (2.0 * FD_STEP)
            a = float(ga.reshape(-1)[ci])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), FD_FLOOR)
            worst = max(worst, rel)
    return worst
