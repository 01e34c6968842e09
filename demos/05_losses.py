"""The four training losses and how the weighted mix combines them.

Run: python3 demos/05_losses.py
"""

import numpy as np

from chromacodec import losses
from chromacodec import tensor as T

rng = np.random.default_rng(5)
target = T.Tensor(rng.uniform(-1, 1, (1, 2, 16, 16)))
generated = T.Tensor(np.clip(target.data + rng.normal(0, 0.2, target.shape), -1, 1))

# Pixel loss: plain mean squared error.
mse = losses.mse_loss(generated, target)
print(f"mse_loss      : {mse.item():.5f}")

# Content loss: L1 distance in the feature space of a frozen conv pyramid.
extractor = losses.FeatureExtractor(seed=0)
content = losses.content_loss(extractor, generated, extractor(target))
print(f"content_loss  : {content.item():.5f}")

# Color loss: both images are blurred with large Gaussian kernels whose
# amplitudes differ slightly, then compared; it punishes low-frequency
# color drift rather than pixel error.
color = losses.color_loss(generated, target)
print(f"color_loss    : {color.item():.6f}")
same_theta = losses.color_loss(target, target, theta_gen=0.065, theta_target=0.065)
print(f"  self, equal amplitudes -> {same_theta.item()}")

# Adversarial loss from a discriminator score map.
scores = T.Tensor(rng.uniform(0.3, 0.7, (1, 1, 4, 4)))
print(f"gan_loss      : {losses.gan_loss(scores).item():.5f}")
print(f"disc_loss     : {losses.discriminator_loss(scores, scores).item():.5f}")

# The mix weights each component; the named groups are the ablation arms.
gan = losses.gan_loss(scores)
total = losses.mixed_loss(losses.LossWeights(), gan, mse, content, color)
print(f"mixed total   : {total.item():.4f}  parts: gan={gan.item():.5f}, "
      f"mse={mse.item():.5f}, content={content.item():.5f}, color={color.item():.5f}")
print("loss groups:")
for name in sorted(losses.LOSS_GROUPS):
    w = losses.LOSS_GROUPS[name]
    print(f"  {name}: gan={w.gan} mse={w.mse} content={w.content} color={w.color}")
