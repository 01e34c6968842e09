"""Color conversion, chroma subsampling, and the raw video and PPM byte formats.

Frames are YCbCr in one of two sampling layouts: 4:4:4 (full chroma:
the input, the training target and the decoded output) or 4:2:0 (half
both ways: the anchors and subsampled raw input). Luma-only frames
travel as bare luma planes, so 4:0:0 names a layout for volume counts
but is never a Frame. RGB conversion uses the full-range BT.601 matrix.
All rounding here is half-up so results are reproducible bit-exactly
across platforms.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError


def round_clamp_u8(x):
    """Round half up, clamp to [0, 255] and cast: the package's one float → uint8 rule."""
    return np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)


class SubsamplingMode(enum.Enum):
    """Chroma sampling layouts, named by the usual J:a:b notation."""

    S444 = "444"
    S420 = "420"
    S400 = "400"

    @classmethod
    def parse(cls, text) -> "SubsamplingMode":
        key = str(text).replace(":", "")
        for mode in cls:
            if mode.value == key:
                return mode
        raise ConfigError(f"unknown subsampling mode {text!r}")


def chroma_dims(width: int, height: int, mode: SubsamplingMode):
    """Chroma plane dims of a 4:4:4 or 4:2:0 frame with the given luma size."""
    if mode is SubsamplingMode.S444:
        return width, height
    return -(-width // 2), -(-height // 2)


@dataclass(frozen=True)
class Plane:
    """A single 8-bit component plane, row-major."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 2:
            raise DimensionError(f"plane must be 2-D, got {arr.ndim} dims")
        if arr.dtype != np.uint8:
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise DataError("plane samples outside [0, 255]")
            arr = arr.astype(np.uint8)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class Frame:
    """One 4:4:4 or 4:2:0 YCbCr frame."""

    y: Plane
    cb: Plane
    cr: Plane
    mode: SubsamplingMode

    def __post_init__(self):
        if self.mode is SubsamplingMode.S400:
            raise ConfigError("a frame is 4:4:4 or 4:2:0, not 4:0:0")
        want = chroma_dims(self.y.width, self.y.height, self.mode)
        for name, p in (("cb", self.cb), ("cr", self.cr)):
            if (p.width, p.height) != want:
                raise DimensionError(
                    f"{name} plane is {p.width}×{p.height}, expected {want[0]}×{want[1]}"
                )


# BT.601 full-range coefficients
_FWD = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_INV = np.array(
    [
        [1.0, 0.0, 1.402],
        [1.0, -0.344136, -0.714136],
        [1.0, 1.772, 0.0],
    ]
)


def rgb_to_ycbcr(rgb: np.ndarray) -> Frame:
    """Convert an H×W×3 8-bit RGB image to a 4:4:4 frame."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DimensionError(f"expected H×W×3 RGB, got shape {arr.shape}")
    f = arr.astype(np.float64)
    ycc = f @ _FWD.T
    ycc[:, :, 1] += 128.0
    ycc[:, :, 2] += 128.0
    out = round_clamp_u8(ycc)
    return Frame(
        Plane(out[:, :, 0]), Plane(out[:, :, 1]), Plane(out[:, :, 2]), SubsamplingMode.S444
    )


def ycbcr_to_rgb(frame: Frame) -> np.ndarray:
    """Convert a 4:4:4 frame back to H×W×3 8-bit RGB."""
    if frame.mode is not SubsamplingMode.S444:
        raise ConfigError(f"RGB conversion needs 4:4:4 input, got {frame.mode.value}")
    ycc = np.stack(
        [
            frame.y.samples.astype(np.float64),
            frame.cb.samples.astype(np.float64) - 128.0,
            frame.cr.samples.astype(np.float64) - 128.0,
        ],
        axis=2,
    )
    return round_clamp_u8(ycc @ _INV.T)


def _box_down(plane: Plane) -> Plane:
    """Average each 2×2 box; an odd last row or column is edge-padded first."""
    a = plane.samples.astype(np.float64)
    if a.shape[0] % 2 or a.shape[1] % 2:
        a = np.pad(a, ((0, a.shape[0] % 2), (0, a.shape[1] % 2)), mode="edge")
    avg = (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]) / 4.0
    return Plane(round_clamp_u8(avg))


def subsample(frame: Frame) -> Frame:
    """Reduce a 4:4:4 frame's chroma to 4:2:0 by box averaging (round half up)."""
    if frame.mode is not SubsamplingMode.S444:
        raise ConfigError(f"subsample needs 4:4:4 input, got {frame.mode.value}")
    return Frame(frame.y, _box_down(frame.cb), _box_down(frame.cr), SubsamplingMode.S420)


def upsample(frame: Frame) -> Frame:
    """Replicate 4:2:0 chroma samples (nearest neighbor) back to 4:4:4."""
    if frame.mode is not SubsamplingMode.S420:
        raise ConfigError(f"upsample needs 4:2:0 input, got {frame.mode.value}")
    h, w = frame.y.height, frame.y.width

    def up(p: Plane) -> Plane:
        return Plane(np.repeat(np.repeat(p.samples, 2, axis=0), 2, axis=1)[:h, :w])

    return Frame(frame.y, up(frame.cb), up(frame.cr), SubsamplingMode.S444)


def mode_volume(width: int, height: int, mode: SubsamplingMode) -> int:
    """Stored samples per frame for the given dims and layout; 4:0:0 is luma alone."""
    if mode is SubsamplingMode.S400:
        return width * height
    cw, ch = chroma_dims(width, height, mode)
    return width * height + 2 * cw * ch


# ---------------------------------------------------------------------------
# raw video and PPM bytes
# ---------------------------------------------------------------------------

def frames_to_bytes(frames) -> bytes:
    """Serialize frames as headerless planar bytes: Y, Cb, Cr per frame."""
    return b"".join(p.samples.tobytes() for f in frames for p in (f.y, f.cb, f.cr))


def frames_from_bytes(data: bytes, width: int, height: int, mode: SubsamplingMode):
    """Parse a headerless planar byte stream into frames; dims come from the caller."""
    if mode is SubsamplingMode.S400:
        raise ConfigError("raw video is 4:4:4 or 4:2:0, not 4:0:0")
    if width < 1 or height < 1:
        raise ConfigError(f"raw frame dims must be positive, got {width}×{height}")
    if not data:
        raise DataError("raw video is empty: no frames")
    per = mode_volume(width, height, mode)
    if len(data) % per:
        raise DataError(
            f"stream length {len(data)} is not a multiple of frame size {per}"
        )
    cw, ch = chroma_dims(width, height, mode)
    buf = np.frombuffer(data, dtype=np.uint8)
    frames = []
    for pos in range(0, len(data), per):
        y = buf[pos : pos + width * height].reshape(height, width)
        cb, cr = buf[pos + width * height : pos + per].reshape(2, ch, cw)
        frames.append(Frame(Plane(y), Plane(cb), Plane(cr), mode))
    return frames


def rgb_to_ppm(rgb: np.ndarray) -> bytes:
    """Encode an H×W×3 8-bit image as binary PPM (P6, maxval 255)."""
    arr = np.asarray(rgb, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DimensionError(f"expected H×W×3 RGB, got shape {arr.shape}")
    return f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii") + arr.tobytes()


# magic, width, height and maxval separated by whitespace or '#' comments to
# end of line, then one whitespace byte; the dims' signs reach the range check
_PPM_HEADER = re.compile(
    rb"P6(?:\s|#[^\n]*\n)+(-?\d+)(?:\s|#[^\n]*\n)+(-?\d+)(?:\s|#[^\n]*\n)+(\d+)\s"
)


def ppm_to_rgb(data: bytes) -> np.ndarray:
    """Parse a binary PPM (P6) image into an H×W×3 8-bit array."""
    if not data.startswith(b"P6"):
        raise DataError("not a P6 PPM file")
    header = _PPM_HEADER.match(data)
    if header is None:
        raise DataError("bad PPM header: want P6, width, height and maxval as decimal integers")
    try:
        width, height, maxval = (int(t) for t in header.groups())
    except ValueError as exc:  # more digits than int() converts
        raise DataError(f"bad PPM header field: {exc}") from exc
    if maxval != 255:
        raise DataError(f"only maxval 255 PPM supported, got {maxval}")
    if width < 1 or height < 1:
        raise DataError(f"PPM dims must be at least 1×1, got {width}×{height}")
    need = width * height * 3
    body = data[header.end() : header.end() + need]
    if len(body) != need:
        raise DataError(f"PPM body has {len(body)} bytes, expected {need}")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3).copy()
