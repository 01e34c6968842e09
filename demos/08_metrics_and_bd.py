"""Quality metrics and rate-distortion comparison of two coders.

Run: python3 demos/08_metrics_and_bd.py
"""

import numpy as np

from chromacodec import metrics

rng = np.random.default_rng(8)

# PSNR and SSIM on planes.
a = rng.integers(0, 256, (32, 32)).astype(np.uint8)
b = np.clip(a.astype(int) + rng.integers(-6, 7, a.shape), 0, 255).astype(np.uint8)
print(f"psnr(a, a) = {metrics.psnr(a, a)}")
print(f"psnr(a, b) = {metrics.psnr(a, b):.2f} dB, ssim = {metrics.ssim(a, b):.4f}")

# Two four-point RD curves: the "proposed" coder reaches the same quality
# at roughly 60% of the rate.
anchor = metrics.curve([(632, 27.8, 42), (1280, 29.9, 37), (2605, 32.4, 32), (5019, 35.2, 27)])
proposed = metrics.curve([(int(r * 0.6), p + 0.3, q)
                          for r, p, q in zip(anchor.bitrates, anchor.psnrs,
                                             (42, 37, 32, 27))])

print("\nper-point deltas (proposed vs anchor):")
for pa, pb in zip(anchor.points, proposed.points):
    print(f"  qp {pa.qp}: dBR {metrics.delta_br(pb, pa):+7.2f}%   "
          f"dPSNR {metrics.delta_psnr(pb, pa):+.3f} dB")

print(f"BDBR   = {metrics.bd_rate(anchor, proposed):+.2f}%  "
      "(average rate change at equal quality)")
print(f"BDPSNR = {metrics.bd_psnr(anchor, proposed):+.3f} dB "
      "(average quality change at equal rate)")

# Curves serialize as CSV, reports as JSON.
csv_bytes = metrics.curve_to_csv(anchor)
rows = csv_bytes.decode("utf-8").splitlines()
print("\ncsv:", rows[0], "| rows:", len(rows) - 1)
assert metrics.curve_from_csv(csv_bytes) == anchor
report = metrics.comparison_report(anchor, proposed)
print("report keys:", sorted(report))
