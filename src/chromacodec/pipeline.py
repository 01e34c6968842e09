"""End-to-end compression pipeline and its container format.

The encoder keeps full 4:2:0 color only on anchor frames (one per
GOP); every other frame is transmitted as a single intra-coded luma
plane. A frame's kind is a function of its index and the GOP size, so
the stream stores no per-frame kind. The generator weights travel
in-band so the decoder can restore chrominance for the luma-only frames:
every frame decodes its luma, then anchors decode their two 4:2:0
chroma planes and the others get chroma from the colorizer.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import codec, network
from . import tensor as T
from .binio import Reader
from .colorspace import (
    Frame,
    Plane,
    SubsamplingMode,
    chroma_dims,
    subsample,
    upsample,
)
from .errors import ConfigError, DataError, DimensionError, NumericError

ANCHOR = 0
LUMA_ONLY = 1


@dataclass(frozen=True)
class GopStructure:
    gop_size: int
    frame_count: int

    def __post_init__(self):
        if not 1 <= self.gop_size <= 255:  # the stream header stores it in one byte
            raise ConfigError(f"gop_size must be in 1..255, got {self.gop_size}")
        if self.frame_count < 1:
            raise ConfigError(f"frame_count must be ≥ 1, got {self.frame_count}")

    @property
    def anchors(self) -> tuple:
        return tuple(range(0, self.frame_count, self.gop_size))

    def is_anchor(self, index: int) -> bool:
        return index % self.gop_size == 0


def split_gops(frame_count: int, gop_size: int = 6) -> GopStructure:
    """Anchor at every multiple of gop_size."""
    return GopStructure(gop_size, frame_count)


@dataclass(frozen=True)
class FrameRecord:
    kind: int  # ANCHOR or LUMA_ONLY, as GopStructure.is_anchor gives it
    payloads: tuple  # PlanePayload per stored plane (Y[, Cb, Cr])


@dataclass(frozen=True)
class CompressedVideo:
    width: int
    height: int
    qp: int
    gop_size: int
    weight_blob: bytes
    records: tuple
    anchor_mode: ClassVar[SubsamplingMode] = SubsamplingMode.S420

    @property
    def frame_count(self) -> int:
        return len(self.records)


def encode_sequence(frames, qp: int, gop: GopStructure, gen_store, net_config, fps: float = 30.0):
    """Compress 4:4:4 frames; returns (CompressedVideo, kbps at the given fps)."""
    if not 0 < fps < math.inf:
        raise ConfigError(f"fps must be positive and finite, got {fps}")
    if len(frames) != gop.frame_count:
        raise DimensionError(
            f"gop structure covers {gop.frame_count} frames, got {len(frames)}"
        )
    first = frames[0]
    w, h = first.y.width, first.y.height
    if w % 8 or h % 8:
        raise DimensionError(f"frame dims must be divisible by 8, got {w}×{h}")
    records = []
    for i, frame in enumerate(frames):
        if frame.mode is not SubsamplingMode.S444:
            raise ConfigError(f"frame {i} is {frame.mode.value}, expected 4:4:4")
        if (frame.y.width, frame.y.height) != (w, h):
            raise DimensionError(f"frame {i} dims differ from frame 0")
        if gop.is_anchor(i):
            sub = subsample(frame)
            payloads = tuple(
                codec.encode_plane(p.samples, qp) for p in (sub.y, sub.cb, sub.cr)
            )
            records.append(FrameRecord(ANCHOR, payloads))
        else:
            records.append(
                FrameRecord(LUMA_ONLY, (codec.encode_plane(frame.y.samples, qp),))
            )
    # weights are spatial-size agnostic: the stream's weight header carries the frame dims
    blob = network.serialize_weights(gen_store, replace(net_config, width=w, height=h))
    video = CompressedVideo(w, h, qp, gop.gop_size, blob, tuple(records))
    return video, bitrate_report(video, fps)["kbps"]


def decode_sequence(video: CompressedVideo):
    """Decompress to 4:4:4 frames, colorizing the luma-only ones."""
    store, net_config = network.deserialize_weights(video.weight_blob)
    dims = (video.width, video.height)
    cdims = chroma_dims(video.width, video.height, SubsamplingMode.S420)
    frames = []
    for i, record in enumerate(video.records):
        try:
            y = codec.decode_plane(record.payloads[0], dims, video.qp)
            if record.kind == ANCHOR:
                cb, cr = (codec.decode_plane(p, cdims, video.qp) for p in record.payloads[1:])
                frames.append(upsample(Frame(Plane(y), Plane(cb), Plane(cr), SubsamplingMode.S420)))
                continue
            luma = T.Tensor(network.luma_to_unit(y)[None, None])
            # overflow shows up as a non-finite output, reported just below
            with np.errstate(over="ignore", invalid="ignore"):
                out = network.generator_forward(store, net_config, luma).data[0]
            if not np.isfinite(out).all():
                raise NumericError(f"frame {i}: colorizer output is not finite")
            cb = network.unit_to_chroma(out[0])
            cr = network.unit_to_chroma(out[1])
            frames.append(Frame(Plane(y), Plane(cb), Plane(cr), SubsamplingMode.S444))
        except DataError as exc:
            raise DataError(f"frame {i}: {exc}") from exc
    return frames


# ---------------------------------------------------------------------------
# container serialization
# ---------------------------------------------------------------------------

_MAGIC = b"CGV1"
_VERSION = 2
_HEADER = "<HHHBBII"  # version, width, height, qp, gop, frames, blob len


def serialize_video(video: CompressedVideo) -> bytes:
    """Magic, header, weight blob, then each frame's planes as a <I length
    and its payload; the GOP fixes how many planes each frame has."""
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(
        struct.pack(
            _HEADER,
            _VERSION,
            video.width,
            video.height,
            video.qp,
            video.gop_size,
            video.frame_count,
            len(video.weight_blob),
        )
    )
    buf.write(video.weight_blob)
    for record in video.records:
        for payload in record.payloads:
            buf.write(struct.pack("<I", len(payload.data)))
            buf.write(payload.data)
    return buf.getvalue()


def deserialize_video(data: bytes) -> CompressedVideo:
    r = Reader(data, "container")
    if r.take(4, "magic") != _MAGIC:
        raise DataError("not a compressed video: bad magic")
    version, width, height, qp, gop_size, frame_count, blob_len = r.unpack(_HEADER, "header")
    if version != _VERSION:
        raise DataError(f"unsupported container version {version}")
    try:
        codec.qstep(qp)  # raises on a QP outside 0-51
        gop = GopStructure(gop_size, frame_count)
    except ConfigError as exc:
        raise DataError(f"bad stream header: {exc}") from exc
    blob = r.take(blob_len, "weight blob")
    records = []
    for i in range(frame_count):
        kind = ANCHOR if gop.is_anchor(i) else LUMA_ONLY
        payloads = []
        for p in range(3 if kind == ANCHOR else 1):
            (plen,) = r.unpack("<I", f"frame {i} plane {p} length")
            raw = r.take(plen, f"frame {i} plane {p} payload")
            payloads.append(codec.PlanePayload(raw, len(raw) * 8))
        records.append(FrameRecord(kind, tuple(payloads)))
    r.finish("final frame record")
    return CompressedVideo(width, height, qp, gop_size, blob, tuple(records))


def bitrate_report(video: CompressedVideo, fps: float = 30.0) -> dict:
    """Bits per stream component (overhead: magic, header and plane lengths), plus kbps both ways."""
    anchor_bits = 0
    luma_bits = 0
    for record in video.records:
        payload_bits = sum(len(p.data) * 8 for p in record.payloads)
        if record.kind == ANCHOR:
            anchor_bits += payload_bits
        else:
            luma_bits += payload_bits
    model_bits = len(video.weight_blob) * 8
    total_bits = len(serialize_video(video)) * 8
    n = video.frame_count
    return {
        "anchor_bits": anchor_bits,
        "luma_bits": luma_bits,
        "model_bits": model_bits,
        "overhead_bits": total_bits - anchor_bits - luma_bits - model_bits,
        "total_bits": total_bits,
        "kbps": total_bits * fps / (1000.0 * n),
        "kbps_without_model": (total_bits - model_bits) * fps / (1000.0 * n),
    }
