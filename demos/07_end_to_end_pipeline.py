"""Whole pipeline: train, compress, decompress, measure.

Run: python3 demos/07_end_to_end_pipeline.py   (about half a minute)
"""

import numpy as np

from chromacodec import colorspace as cs
from chromacodec import metrics, network, pipeline, trainer

def clip(n=6, size=32):
    frames = []
    for i in range(n):
        rgb = np.full((size, size, 3), 115, dtype=np.uint8)
        x = (3 * i) % (size - 12)
        rgb[4:16, x : x + 12] = (240, 40, 40)
        rgb[20:30, size - 14 - x : size - 2 - x] = (40, 40, 240)
        frames.append(cs.rgb_to_ycbcr(rgb))
    return frames

frames = clip()
qp = 32
gop = pipeline.split_gops(len(frames), gop_size=3)

config = network.NetworkConfig(base_channels=8)
gen = network.init_generator(config, seed=0)
disc = network.init_discriminator(config, seed=0)
pairs = trainer.build_training_set(frames, gop, qp)
history = trainer.train(gen, disc, config, pairs, trainer.TrainConfig(steps=60, seed=0))
print(f"trained 60 steps, loss {history[0].total:.3f} -> {history[-1].total:.3f}")

video, kbps = pipeline.encode_sequence(frames, qp, gop, gen, config)
report = pipeline.bitrate_report(video)
print(f"stream: {report['total_bits']} bits = {kbps:.1f} kbps at 30 fps")
print(f"  anchors {report['anchor_bits']}, luma-only {report['luma_bits']}, "
      f"weights {report['model_bits']}, overhead {report['overhead_bits']}")

decoded = pipeline.decode_sequence(video)
print("frame  kind        psnr   chroma-psnr  gray-chroma-psnr")
for i, (src, out) in enumerate(zip(frames, decoded)):
    q = metrics.psnr_frame(src, out)
    gray = src.cb.samples.copy()
    gray[:] = 128
    gray_frame = cs.Frame(out.y, cs.Plane(gray), cs.Plane(gray.copy()), src.mode)
    g = metrics.psnr_frame(src, gray_frame)
    kind = "anchor" if gop.is_anchor(i) else "colorized"
    chroma = (q["cb"] + q["cr"]) / 2
    gray_chroma = (g["cb"] + g["cr"]) / 2
    print(f"{i:4d}   {kind:9s}  {q['combined']:6.2f}   {chroma:7.2f}      {gray_chroma:7.2f}")

# The container is byte-exact across a write/read cycle.
blob = pipeline.serialize_video(video)
again = pipeline.deserialize_video(blob)
print("container round trip byte-exact:", pipeline.serialize_video(again) == blob)
