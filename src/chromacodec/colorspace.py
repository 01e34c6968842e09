"""Color conversion, chroma subsampling, and raw plane I/O.

Frames are YCbCr with one of four sampling layouts: 4:4:4 (full
chroma), 4:2:2 (half horizontal), 4:2:0 (half both ways), and 4:0:0
(luma only, the layout the compression pipeline actually transmits).
RGB conversion uses the full-range BT.601 matrix. All rounding here is
half-up so results are reproducible bit-exactly across platforms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DimensionError


def _round_half_up(x):
    return np.floor(x + 0.5)


def _round_clamp_u8(x):
    return np.clip(_round_half_up(x), 0, 255).astype(np.uint8)


class SubsamplingMode(enum.Enum):
    """Chroma sampling layouts, named by the usual J:a:b notation."""

    S444 = "444"
    S422 = "422"
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
    """Chroma plane dims for a luma plane of the given size, or None for 4:0:0."""
    if mode is SubsamplingMode.S444:
        return width, height
    if mode is SubsamplingMode.S422:
        return -(-width // 2), height
    if mode is SubsamplingMode.S420:
        return -(-width // 2), -(-height // 2)
    return None


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
    """One YCbCr frame; cb/cr are absent exactly when mode is 4:0:0."""

    y: Plane
    cb: Optional[Plane]
    cr: Optional[Plane]
    mode: SubsamplingMode

    def __post_init__(self):
        want = chroma_dims(self.y.width, self.y.height, self.mode)
        if want is None:
            if self.cb is not None or self.cr is not None:
                raise DimensionError("4:0:0 frame must not carry chroma planes")
            return
        if self.cb is None or self.cr is None:
            raise DimensionError(f"mode {self.mode.value} requires both chroma planes")
        for name, p in (("cb", self.cb), ("cr", self.cr)):
            if (p.width, p.height) != want:
                raise DimensionError(
                    f"{name} plane is {p.width}×{p.height}, expected {want[0]}×{want[1]}"
                )


def luma_only(frame: Frame) -> Frame:
    """Drop chroma, keeping just the transmitted luminance."""
    return Frame(frame.y, None, None, SubsamplingMode.S400)


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
    out = _round_clamp_u8(ycc)
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
    return _round_clamp_u8(ycc @ _INV.T)


def _pad_even(a: np.ndarray, pad_h: bool, pad_w: bool) -> np.ndarray:
    if (pad_h and a.shape[0] % 2) or (pad_w and a.shape[1] % 2):
        return np.pad(
            a,
            ((0, a.shape[0] % 2 if pad_h else 0), (0, a.shape[1] % 2 if pad_w else 0)),
            mode="edge",
        )
    return a


def _box_down(plane: Plane, mode: SubsamplingMode) -> Plane:
    a = plane.samples.astype(np.float64)
    if mode is SubsamplingMode.S422:
        a = _pad_even(a, pad_h=False, pad_w=True)
        avg = (a[:, 0::2] + a[:, 1::2]) / 2.0
    else:  # 4:2:0
        a = _pad_even(a, pad_h=True, pad_w=True)
        avg = (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]) / 4.0
    return Plane(_round_clamp_u8(avg))


def subsample(frame: Frame, mode: SubsamplingMode) -> Frame:
    """Reduce chroma resolution by box averaging (round half up)."""
    if frame.mode is not SubsamplingMode.S444:
        raise ConfigError(f"subsample needs 4:4:4 input, got {frame.mode.value}")
    if mode is SubsamplingMode.S444:
        return frame
    if mode is SubsamplingMode.S400:
        return luma_only(frame)
    return Frame(frame.y, _box_down(frame.cb, mode), _box_down(frame.cr, mode), mode)


def upsample(frame: Frame) -> Frame:
    """Replicate chroma samples (nearest neighbor) back to 4:4:4."""
    if frame.mode is SubsamplingMode.S400:
        raise ConfigError("cannot upsample a 4:0:0 frame: no chroma present")
    if frame.mode is SubsamplingMode.S444:
        return frame
    h, w = frame.y.height, frame.y.width

    def up(p: Plane) -> Plane:
        a = p.samples
        if frame.mode is SubsamplingMode.S422:
            a = np.repeat(a, 2, axis=1)
        else:
            a = np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)
        return Plane(a[:h, :w])

    return Frame(frame.y, up(frame.cb), up(frame.cr), SubsamplingMode.S444)


def raw_volume(frames) -> int:
    """Total stored-sample count of a frame or a sequence of frames."""
    if isinstance(frames, Frame):
        frames = [frames]
    return sum(mode_volume(f.y.width, f.y.height, f.mode) for f in frames)


def mode_volume(width: int, height: int, mode: SubsamplingMode) -> int:
    """Stored samples per frame for the given dims and layout."""
    total = width * height
    dims = chroma_dims(width, height, mode)
    if dims is not None:
        total += 2 * dims[0] * dims[1]
    return total


# ---------------------------------------------------------------------------
# raw byte-stream and PPM I/O
# ---------------------------------------------------------------------------

_FILE_MODES = (SubsamplingMode.S444, SubsamplingMode.S420, SubsamplingMode.S400)


def frames_to_bytes(frames) -> bytes:
    """Serialize frames as headerless planar bytes (Y, then Cb, Cr if present)."""
    chunks = []
    for f in frames:
        if f.mode not in _FILE_MODES:
            raise ConfigError(f"raw byte streams support 444/420/400, not {f.mode.value}")
        chunks.append(f.y.samples.tobytes())
        if f.cb is not None:
            chunks.append(f.cb.samples.tobytes())
            chunks.append(f.cr.samples.tobytes())
    return b"".join(chunks)


def frames_from_bytes(data: bytes, width: int, height: int, mode: SubsamplingMode):
    """Parse a headerless planar byte stream into frames; dims come from the caller."""
    if mode not in _FILE_MODES:
        raise ConfigError(f"raw byte streams support 444/420/400, not {mode.value}")
    if width < 1 or height < 1:
        raise ConfigError(f"raw frame dims must be positive, got {width}×{height}")
    per = mode_volume(width, height, mode)
    if len(data) % per:
        raise DataError(
            f"stream length {len(data)} is not a multiple of frame size {per}"
        )
    cdims = chroma_dims(width, height, mode)
    frames = []
    pos = 0
    buf = np.frombuffer(data, dtype=np.uint8)
    while pos < len(data):
        y = Plane(buf[pos : pos + width * height].reshape(height, width))
        pos += width * height
        cb = cr = None
        if cdims is not None:
            cw, ch = cdims
            cb = Plane(buf[pos : pos + cw * ch].reshape(ch, cw))
            pos += cw * ch
            cr = Plane(buf[pos : pos + cw * ch].reshape(ch, cw))
            pos += cw * ch
        frames.append(Frame(y, cb, cr, mode))
    return frames


def write_raw(path, frames) -> None:
    with open(path, "wb") as fh:
        fh.write(frames_to_bytes(frames))


def read_raw(path, width: int, height: int, mode: SubsamplingMode):
    with open(path, "rb") as fh:
        return frames_from_bytes(fh.read(), width, height, mode)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an H×W×3 8-bit image as binary PPM (P6, maxval 255)."""
    arr = np.asarray(rgb, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DimensionError(f"expected H×W×3 RGB, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM (P6) file into an H×W×3 8-bit array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise DataError("not a P6 PPM file")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError("truncated PPM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise DataError(f"bad PPM header field: {exc}") from exc
    if maxval != 255:
        raise DataError(f"only maxval 255 PPM supported, got {maxval}")
    need = width * height * 3
    body = data[pos : pos + need]
    if len(body) != need:
        raise DataError(f"PPM body has {len(body)} bytes, expected {need}")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3).copy()
