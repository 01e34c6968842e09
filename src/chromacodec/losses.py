"""Training objectives: adversarial, pixel, feature, and color terms.

The generator objective is a weighted sum

    L = a1·L_gan + a2·L_mse + a3·L_content + a4·L_color

with default weights (1, 100, 1000, 100). The color term filters both
images with unnormalized Gaussian kernels whose amplitudes differ
slightly (0.062 for generated, 0.065 for target), deliberately asking
the generator for slightly brighter output than a plain MSE fit would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .network import _rng_for


@dataclass(frozen=True)
class LossWeights:
    gan: float = 1.0
    mse: float = 100.0
    content: float = 1000.0
    color: float = 100.0

    def __post_init__(self):
        for name in ("gan", "mse", "content", "color"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"loss weight {name} must be finite and nonnegative, got {value}")


# ablation groups: every group keeps the adversarial and pixel terms
LOSS_GROUPS = {
    "G1": LossWeights(1.0, 100.0, 0.0, 0.0),
    "G2": LossWeights(1.0, 100.0, 0.0, 100.0),
    "G3": LossWeights(1.0, 100.0, 1000.0, 0.0),
    "G4": LossWeights(1.0, 100.0, 1000.0, 100.0),
}


def gan_loss(d_out: T.Tensor) -> T.Tensor:
    """Generator-side adversarial term: mean over patches of -log D."""
    return T.scale(T.mean(T.log_floor(d_out)), -1.0)


def discriminator_loss(d_real: T.Tensor, d_fake: T.Tensor) -> T.Tensor:
    """Mean of -log D(real) - log(1 - D(fake))."""
    real_term = T.mean(T.log_floor(d_real))
    fake_term = T.mean(T.log_floor(T.scale(d_fake, -1.0) + T.Tensor(1.0)))
    return T.scale(real_term + fake_term, -1.0)


def mse_loss(gen: T.Tensor, target: T.Tensor) -> T.Tensor:
    """Per-element mean squared difference."""
    if gen.shape != target.shape:
        raise DimensionError(f"mse_loss shapes differ: {gen.shape} vs {target.shape}")
    return T.mean(T.square(gen - target))


# unit-amplitude 1-D Gaussian exp(-k^2/(2·3)) for k = -10..10
_TAPS = np.exp(-np.arange(-10.0, 11.0) ** 2 / 6.0)


def gaussian_kernel(theta: float) -> np.ndarray:
    """Unnormalized 21×21 tap grid theta · outer(_TAPS, _TAPS); its center is theta."""
    return theta * np.outer(_TAPS, _TAPS)


def color_loss(
    gen: T.Tensor, target: T.Tensor, theta_gen: float = 0.062, theta_target: float = 0.065
) -> T.Tensor:
    """Squared difference of Gaussian-filtered images, mean-normalized.

    The two kernels differ only in amplitude, so by linearity the
    difference of the filtered images is one unit-amplitude filtering of
    theta_gen·gen − theta_target·target.
    """
    if gen.shape != target.shape:
        raise DimensionError(f"color_loss shapes differ: {gen.shape} vs {target.shape}")
    diff = T.scale(gen, theta_gen) - T.scale(target, theta_target)
    return T.mean(T.square(T.separable_filter(diff, _TAPS)))


class FeatureExtractor:
    """Frozen convolutional pyramid used as the content-feature map.

    Four stride-2 3×3 convolutions with ReLU, seeded random weights,
    standing in for a pre-trained deep feature layer.
    """

    def __init__(self, seed: int = 0):
        self.layers = []
        cin = 2  # the generator's two chroma channels
        for i, cout in enumerate((8, 16, 32, 32)):
            rng = _rng_for(seed, f"feat{i}")
            bound = 1.0 / np.sqrt(cin * 9)
            w = rng.uniform(-bound, bound, size=(cout, cin, 3, 3))
            self.layers.append((T.Tensor(w), T.Tensor(np.zeros(cout))))
            cin = cout

    def __call__(self, x: T.Tensor) -> T.Tensor:
        for w, b in self.layers:
            x = T.relu(T.conv2d(x, w, b, stride=2, padding=1))
        return x


def content_loss(extractor, gen: T.Tensor, target_features: T.Tensor) -> T.Tensor:
    """L1 distance between extractor(gen) and the target's feature map,
    normalized by feature count.

    `target_features` is extractor(target), computed once by the caller
    because the extractor is frozen. It is detached: only the generated
    image receives gradient.
    """
    fg = extractor(gen)
    if fg.shape != target_features.shape:
        raise DimensionError(
            f"content_loss feature shapes differ: {fg.shape} vs {target_features.shape}"
        )
    return T.scale(T.l1_norm(fg - target_features.detach()), 1.0 / fg.size)


def mixed_loss(weights: LossWeights, gan, mse, content, color):
    """The weighted total of the four components."""
    return (
        T.scale(gan, weights.gan)
        + T.scale(mse, weights.mse)
        + T.scale(content, weights.content)
        + T.scale(color, weights.color)
    )
