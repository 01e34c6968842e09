"""Seeded inputs and the fixed configuration of each benchmark workload.

The program receives only the frames built here; `--seed` changes the
frames and nothing else (network and training seeds stay 0, as in the
acceptance run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from chromacodec import colorspace as cs

QPS = (27, 32, 37, 42)
REPORT_QP = 32  # the QP whose stream gives the rate and quality figures


_RGB_TO_YCC = np.array(
    [[0.299, 0.587, 0.114], [-0.168736, -0.331264, 0.5], [0.5, -0.418688, -0.081312]]
)


def _hue_shift(rgb, dcb: int, dcr: int) -> np.ndarray:
    """Move an RGB color by (dcb, dcr) in chroma at constant luma (BT.601 full range)."""
    ycc = _RGB_TO_YCC @ np.asarray(rgb, dtype=np.float64) + np.array([0.0, dcb, dcr])
    return np.clip(np.floor(np.linalg.solve(_RGB_TO_YCC, ycc) + 0.5), 0, 255).astype(np.uint8)


def rectangle_scene(width: int, height: int, n: int, seed: int):
    """Moving red, blue and green rectangles over neutral gray.

    Coordinates are laid out on a 64×64 grid and scaled to the frame, so
    at 64×64 with seed 0 this is exactly the acceptance sequence. Any
    other seed starts each of the three motions up to 7 grid units later
    and moves each hue by up to ±12 in Cb and Cr at constant luma. The
    ranges are kept narrow so that rate and quality differ little from
    seed to seed; the shifts never wrap a rectangle around the frame.
    """
    rng = np.random.default_rng(seed)
    if seed:
        ox, oy, og = (int(v) for v in rng.integers(0, 8, 3))
        shifts = rng.integers(-12, 13, (3, 2))
    else:
        ox = oy = og = 0
        shifts = np.zeros((3, 2), dtype=np.int64)
    red, blue, green = (
        _hue_shift(rgb, *d) for rgb, d in zip(((255, 32, 32), (32, 32, 255), (32, 200, 64)), shifts)
    )
    sx, sy = width / 64.0, height / 64.0

    def px(v):
        return int(round(v * sx))

    def py(v):
        return int(round(v * sy))

    frames = []
    for i in range(n):
        rgb = np.full((height, width, 3), 120, dtype=np.uint8)
        x = (3 * i + ox) % 44
        y = (2 * i + oy) % 36
        g = (i + og) % 8
        rgb[py(8 + y) : py(24 + y), px(x) : px(x + 20)] = red
        rgb[py(40) : py(56), px(40 - x) : px(60 - x)] = blue
        rgb[py(26 + g) : py(34 + g), px(20) : px(44)] = green
        frames.append(cs.rgb_to_ycbcr(rgb))
    return frames


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    frames: int
    gop: int  # GOP of the measured streams
    train_steps: int  # steps of the one trainer.train call
    use_attention: bool
    encode_share: float  # share of --seconds given to encoding; decoding gets the rest
    scene: Callable  # (width, height, frames, seed) -> list of 4:4:4 frames


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance configuration: attention dominates training and decoding.
        Workload("desk64", 64, 64, 12, 6, 8, True, 0.25, rectangle_scene),
        # README size with attention off: convolutions, losses and Adam carry the work.
        Workload("qcif176", 176, 144, 12, 6, 8, False, 0.25, rectangle_scene),
    )
}


def make_frames(workload: Workload, seed: int):
    return workload.scene(workload.width, workload.height, workload.frames, seed)
