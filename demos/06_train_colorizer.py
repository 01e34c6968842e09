"""Fit the colorizer on anchor frames of a tiny synthetic clip.

Run: python3 demos/06_train_colorizer.py   (about ten seconds)
"""

import numpy as np

from chromacodec import colorspace as cs
from chromacodec import network, pipeline, trainer

def clip(n=4, size=32):
    frames = []
    for i in range(n):
        rgb = np.full((size, size, 3), 110, dtype=np.uint8)
        rgb[6:18, 4 + 3 * i : 16 + 3 * i] = (230, 50, 50)
        rgb[20:30, 18 - 2 * i : 28 - 2 * i] = (40, 70, 220)
        frames.append(cs.rgb_to_ycbcr(rgb))
    return frames

frames = clip()
gop = pipeline.split_gops(len(frames), gop_size=2)
print("anchors:", gop.anchors)

# Training pairs couple each anchor's *decoded* luma (the colorizer will
# only ever see coded luma at the decoder) with its pristine chroma.
pairs = trainer.build_training_set(frames, gop, qp=32)
print("training pairs:", len(pairs))

config = network.NetworkConfig(base_channels=8)
gen = network.init_generator(config, seed=0)
disc = network.init_discriminator(config, seed=0)
train_config = trainer.TrainConfig(steps=40, seed=0)
history = trainer.train(gen, disc, config, pairs, train_config)

print("step   total      mse      color     gan")
for rec in history[::8] + [history[-1]]:
    print(f"{rec.step:4d}  {rec.total:8.4f}  {rec.mse:.5f}  {rec.color:.6f}  {rec.gan:.4f}")
drop = 100 * (1 - history[-1].total / history[0].total)
print(f"loss drop over {len(history)} steps: {drop:.1f}%")

# The loss history exports as CSV for plotting.
print("csv head:", trainer.history_to_csv(history).splitlines()[0])
