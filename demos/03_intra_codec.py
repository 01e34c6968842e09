"""The 8x8 transform codec: rate/distortion across quantization levels.

Run: python3 demos/03_intra_codec.py
"""

import numpy as np

from chromacodec import codec, metrics

rng = np.random.default_rng(21)

# A plane with smooth structure plus mild noise, like natural luma.
yy, xx = np.mgrid[0:64, 0:64]
plane = (96 + 48 * np.sin(xx / 9.0) + 32 * np.cos(yy / 7.0)
         + rng.normal(0, 4, (64, 64)))
plane = np.clip(plane, 0, 255).astype(np.uint8)

print("qp  qstep    bits  bytes/px  psnr    bound-mse")
for qp in (12, 22, 27, 32, 37, 42):
    payload = codec.encode_plane(plane, qp)
    out = codec.decode_plane(payload, (64, 64), qp)
    q = codec.qstep(qp)
    quality = metrics.psnr(plane, out)
    bound = (q / 2.0) ** 2 + 0.5
    print(f"{qp:2d}  {q:6.2f}  {payload.bit_length:6d}  {len(payload.data) / plane.size:.3f}"
          f"     {quality:5.2f}  {bound:8.1f}")

# The coder is deterministic: same plane, same bytes.
p2 = codec.encode_plane(plane, 32)
print("deterministic:", p2.data == codec.encode_plane(plane, 32).data)

# Entropy layer on its own: order-0 exp-Golomb round trip.
writer = codec.BitWriter()
values = rng.integers(0, 500, 20)
for v in values:
    codec.exp_golomb_write(writer, int(v))
payload = writer.payload()
reader = codec.BitReader(payload.data, payload.bit_length)
decoded = [codec.exp_golomb_read(reader) for _ in values]
print("exp-golomb round trip:", decoded == [int(v) for v in values],
      f"({payload.bit_length} bits for {len(values)} symbols)")
