"""Inside the colorizer: stage geometry, attention, ablations, weight files.

Run: python3 demos/04_colorizer_network.py
"""

import numpy as np

from chromacodec import network
from chromacodec import tensor as T

# the weights fit any frame size; the dims here only size the stage table
config = network.NetworkConfig(width=32, height=32, base_channels=8)
store = network.init_generator(config, seed=0)
print(f"generator parameters: {sum(t.size for t in store.values())} in {len(store)} tensors")

# Every stage's feature size (C, H, W) from the size table: generator
# stages P/M/A/D, discriminator stages C. Then the shape a real forward
# pass produces.
for name, shape in network.generator_level_shapes(config).items():
    print(f"  {name:4s} {shape}")
rng = np.random.default_rng(3)
luma = T.Tensor(rng.uniform(-1, 1, (1, 1, 32, 32)))
print("generator output:", network.generator_forward(store, config, luma).shape)

# Attention starts as an exact identity (its gain is zero), so the
# attention and no-attention arms coincide at initialization and only
# diverge once training moves the gain.
plain_config = network.NetworkConfig(base_channels=8, use_attention=False)
plain = network.init_generator(plain_config, seed=0)
a = network.generator_forward(store, config, luma)
b = network.generator_forward(plain, plain_config, luma)
print("attention arm == plain arm at init:", np.array_equal(a.data, b.data))

# The long residual connection across each skip's block chain is a
# structural toggle: its weights only exist when enabled.
bare_config = network.NetworkConfig(base_channels=8, use_glrc=False)
bare = network.init_generator(bare_config, seed=0)
print("long-skip weights present:", "rc1.glrc.w" in store,
      "| absent when disabled:", "rc1.glrc.w" not in bare)

# A store is a plain dict from name to Tensor. The weight file holds only
# the header (version, base channels, ablation flags) and the values: the
# network the header describes names every tensor, so the file carries no
# names, shapes or frame size, and it reloads byte-exactly.
blob = network.serialize_weights(store, config)
reloaded, config2 = network.deserialize_weights(blob)
same = all(np.array_equal(t.data, reloaded[n].data) for n, t in store.items())
print(f"weight file: {len(blob)} bytes, byte-exact reload: {same}")

disc = network.init_discriminator(config, seed=0)
patch = network.discriminator_forward(disc, T.Tensor(rng.uniform(-1, 1, (1, 3, 32, 32))))
print("discriminator patch map:", patch.shape, "scores in (0, 1):",
      bool(np.all((patch.data > 0) & (patch.data < 1))))
