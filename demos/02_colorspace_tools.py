"""Color conversion, chroma subsampling, and the raw/PPM file formats.

Run: python3 demos/02_colorspace_tools.py
"""

import tempfile
from pathlib import Path

import numpy as np

from chromacodec import colorspace as cs

rng = np.random.default_rng(11)

# Full-range BT.601: gray maps to centered chroma, saturated red does not.
for name, rgb in [("black", (0, 0, 0)), ("gray", (128, 128, 128)), ("red", (255, 0, 0))]:
    frame = cs.rgb_to_ycbcr(np.full((1, 1, 3), rgb, dtype=np.uint8))
    print(f"{name:5s} -> Y={frame.y.samples[0, 0]:3d} "
          f"Cb={frame.cb.samples[0, 0]:3d} Cr={frame.cr.samples[0, 0]:3d}")

# Round trip error stays within one code level.
rgb = rng.integers(0, 256, (48, 64, 3)).astype(np.uint8)
back = cs.ycbcr_to_rgb(cs.rgb_to_ycbcr(rgb))
print("round trip max error:", int(np.max(np.abs(back.astype(int) - rgb.astype(int)))))

# Subsampling shrinks the raw sample volume; luma-only is 2/3 of 4:2:0.
frame = cs.rgb_to_ycbcr(rgb)
for mode in cs.SubsamplingMode:
    print(f"{mode.value}: {cs.mode_volume(64, 48, mode):5d} bytes/frame")
v420 = cs.mode_volume(64, 48, cs.SubsamplingMode.S420)
v400 = cs.mode_volume(64, 48, cs.SubsamplingMode.S400)
print(f"4:0:0 / 4:2:0 = {v400}/{v420} = {v400 / v420:.4f}")

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    # Headerless raw video: N frames back to back, planar within each frame.
    frames = [cs.subsample(frame) for _ in range(3)]
    cs.write_raw(tmp / "clip.yuv", frames)
    again = cs.read_raw(tmp / "clip.yuv", 64, 48, cs.SubsamplingMode.S420)
    print("raw file frames:", len(again),
          "bit-exact:", all(np.array_equal(a.y.samples, b.y.samples)
                            for a, b in zip(frames, again)))

    # Binary PPM for single images, comments and all.
    cs.write_ppm(tmp / "frame.ppm", rgb)
    print("ppm round trip exact:", np.array_equal(cs.read_ppm(tmp / "frame.ppm"), rgb))
