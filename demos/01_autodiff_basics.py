"""A tour of the tensor engine: build expressions, differentiate, verify.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from chromacodec import tensor as T

rng = np.random.default_rng(7)

# A scalar expression with a shared subexpression: y = mean((x*x + x)^2)
x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
y = T.mean(T.square(x * x + x))
T.backward(y)
print("expression value:", round(y.item(), 6))
print("gradient shape :", x.grad.shape)

# The engine's own finite-difference checker reports the worst relative
# mismatch between analytic and numeric gradients.
err = T.grad_check(lambda t: T.mean(T.square(t * t + t)), [x], seed=1)
print(f"finite-difference agreement: {err:.2e}")

# Convolution is the workhorse of the colorizer. Gradients flow through
# the image, the kernel, and the bias alike.
image = T.Tensor(rng.standard_normal((1, 2, 8, 8)), requires_grad=True)
kernel = T.Tensor(rng.standard_normal((4, 2, 3, 3)) * 0.3, requires_grad=True)
bias = T.Tensor(np.zeros(4), requires_grad=True)
out = T.relu(T.conv2d(image, kernel, bias, stride=1, padding=1))
print("conv output shape:", out.shape)
loss = T.mean(T.square(out))
T.backward(loss)
print("non-zero kernel grads:", int(np.count_nonzero(kernel.grad)), "of", kernel.grad.size)

# Transposed convolution with the same kernel array and zero biases is the
# exact adjoint: <conv(x), probe> equals <x, conv_t(probe)> to machine
# precision. The stride-2 forward never touches the last row and column of
# an 8x8 input, so the adjoint image is 7x7 and the comparison slices x to
# match.
fwd = T.conv2d(image, kernel, bias, stride=2, padding=0)
probe = T.Tensor(rng.standard_normal(fwd.shape))
inner_fwd = float(np.sum(fwd.data * probe.data))
back = T.conv_transpose2d(probe, kernel, T.Tensor(np.zeros(2)), stride=2)
h, w = back.shape[2:]
inner_back = float(np.sum(image.data[:, :, :h, :w] * back.data))
print(f"adjoint identity: {inner_fwd:.6f} vs {inner_back:.6f}")
