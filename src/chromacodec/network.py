"""Colorizer generator and patch discriminator.

The generator is a four-level U-shaped encoder/decoder. Each encoder
level is a multi-resolution block (three chained 3×3 convolutions whose
outputs are concatenated, plus a 1×1 shortcut). Skip connections do not
feed the decoder directly: they pass through a stack of four residual
blocks with a long 1×1 shortcut across the whole stack, then a
self-attention layer whose contribution is scaled by a learnable gain
that starts at zero. The decoder concatenates each upsampled level with
the matching skip and ends in a 1×1 convolution squashed by tanh,
producing two chroma channels in [-1, 1] from one luma channel.

The discriminator is five convolutions producing a sigmoid patch map at
one eighth of the input resolution.

Weights live in a plain dict from name to Tensor, in the order
`_generator_tensors` lists them; a weight file holds only the header and
the values in that order. Every tensor is initialized from its own seed
stream derived from (seed, name), so toggling one component on or off
never shifts the values of the others.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .binio import Reader
from .colorspace import round_clamp_u8
from .errors import ConfigError, DataError, DimensionError, NumericError

ATTN_KEY_DIVISOR = 8  # f and g project channels down to ceil(C/8)


@dataclass(frozen=True)
class NetworkConfig:
    """Geometry and ablation switches shared by generator and discriminator."""

    width: int
    height: int
    base_channels: int = 8
    use_attention: bool = True
    use_glrc: bool = True

    def __post_init__(self):
        if self.width % 8 or self.height % 8:
            raise ConfigError(
                f"width and height must be divisible by 8, got {self.width}×{self.height}"
            )
        if self.base_channels < 6:  # the narrowest multires block splits 6 ways
            raise ConfigError(f"base_channels must be ≥ 6, got {self.base_channels}")


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, zlib.crc32(name.encode("utf-8"))))
    )


# ---------------------------------------------------------------------------
# tensor lists and weight initialization
# ---------------------------------------------------------------------------

def _conv_tensors(prefix, cin, cout, k):
    return [(f"{prefix}.w", (cout, cin, k, k), cin * k * k), (f"{prefix}.b", (cout,), 0)]


def _convt_tensors(prefix, cin, cout, k):
    return [(f"{prefix}.w", (cin, cout, k, k), cin * k * k), (f"{prefix}.b", (cout,), 0)]


def multires_split(out_channels: int):
    """Branch widths: one sixth, one third, and the remainder (needs ≥ 6 channels)."""
    c1 = out_channels // 6
    c2 = out_channels // 3
    return c1, c2, out_channels - c1 - c2


def _level_channels(c: int):
    # encoder output channels per level, shallow to deep
    return (c, c, 2 * c, 2 * c)


@functools.lru_cache(maxsize=16)  # bounded: weight file headers can name any geometry
def _generator_tensors(config: NetworkConfig) -> tuple:
    """(name, shape, fan_in) of every generator tensor, in weight-file order."""
    c = config.base_channels
    out = []
    cin = 1
    for i, cout in enumerate(_level_channels(c), start=1):
        c1, c2, c3 = multires_split(cout)
        out += _conv_tensors(f"m{i}.c1", cin, c1, 3)
        out += _conv_tensors(f"m{i}.c2", c1, c2, 3)
        out += _conv_tensors(f"m{i}.c3", c2, c3, 3)
        out += _conv_tensors(f"m{i}.sc", cin, cout, 1)
        for j in range(1, 5):
            out += _conv_tensors(f"rc{i}.b{j}.f3", cout, cout, 3)
            out += _conv_tensors(f"rc{i}.b{j}.f1", cout, cout, 1)
        if config.use_glrc:
            out += _conv_tensors(f"rc{i}.glrc", cout, cout, 1)
        if config.use_attention:
            key = -(-cout // ATTN_KEY_DIVISOR)
            out += _conv_tensors(f"att{i}.f", cout, key, 1)
            out += _conv_tensors(f"att{i}.g", cout, key, 1)
            out += _conv_tensors(f"att{i}.h", cout, cout, 1)
            out.append((f"att{i}.gain", (), 0))  # starts at 0: pure pass-through
        cin = cout
    out += _convt_tensors("up1", 4 * c, 2 * c, 2)
    out += _convt_tensors("up2", 4 * c, c, 2)
    out += _convt_tensors("up3", 2 * c, c, 2)
    out += _conv_tensors("head", 2 * c, 2, 1)
    return tuple(out)


@functools.lru_cache(maxsize=16)
def _value_offsets(config: NetworkConfig) -> tuple:
    """Where each generator tensor's values end, counted in float64 values."""
    return tuple(itertools.accumulate(math.prod(s) for _, s, _ in _generator_tensors(config)))


def _init(tensors, seed: int) -> dict[str, T.Tensor]:
    """Uniform ±1/√fan_in per tensor from its own (seed, name) stream; zeros at fan_in 0."""
    store = {}
    for name, shape, fan_in in tensors:
        if fan_in > 0:
            bound = 1.0 / np.sqrt(fan_in)
            data = _rng_for(seed, name).uniform(-bound, bound, size=shape)
        else:
            data = np.zeros(shape)
        store[name] = T.Tensor(data, requires_grad=True)
    return store


def init_generator(config: NetworkConfig, seed: int) -> dict[str, T.Tensor]:
    return _init(_generator_tensors(config), seed)


def init_discriminator(config: NetworkConfig, seed: int) -> dict[str, T.Tensor]:
    c = config.base_channels
    return _init(
        _conv_tensors("c1", 3, c, 4)
        + _conv_tensors("c2", c, c, 4)
        + _conv_tensors("c3", c, c, 4)
        + _conv_tensors("c4", c, c, 3)
        + _conv_tensors("c5", c, 1, 3),
        seed,
    )


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _conv(store, prefix, x, stride=1, padding=0):
    return T.conv2d(x, store[f"{prefix}.w"], store[f"{prefix}.b"], stride, padding)


def multires_block(store: dict[str, T.Tensor], prefix: str, x: T.Tensor) -> T.Tensor:
    a = T.relu(_conv(store, f"{prefix}.c1", x, 1, 1))
    b = T.relu(_conv(store, f"{prefix}.c2", a, 1, 1))
    cc = T.relu(_conv(store, f"{prefix}.c3", b, 1, 1))
    return T.concat([a, b, cc], axis=1) + _conv(store, f"{prefix}.sc", x)


def optimized_rc(store: dict[str, T.Tensor], prefix: str, x: T.Tensor, use_glrc: bool) -> T.Tensor:
    """Four chained conv3+conv1 residual blocks, plus a long 1×1 shortcut."""
    r = x
    for j in range(1, 5):
        r = _conv(store, f"{prefix}.b{j}.f3", r, 1, 1) + _conv(store, f"{prefix}.b{j}.f1", r)
    if use_glrc:
        return _conv(store, f"{prefix}.glrc", x) + r
    return r


def self_attention(store: dict[str, T.Tensor], prefix: str, x: T.Tensor) -> T.Tensor:
    """Non-local mixing over all spatial positions, gated by a learned gain."""
    n, c, h, w = x.shape
    f, g, hh = (
        T.reshape(_conv(store, f"{prefix}.{p}", x), (n, -1, h * w)) for p in "fgh"
    )
    o = T.reshape(T.attention(f, g, hh), (n, c, h, w))
    return T.mul(o, store[f"{prefix}.gain"]) + x


def _skip(store, config, level, x):
    out = optimized_rc(store, f"rc{level}", x, config.use_glrc)
    if config.use_attention:
        out = self_attention(store, f"att{level}", out)
    return out


def generator_forward(store: dict[str, T.Tensor], config: NetworkConfig, luma: T.Tensor) -> T.Tensor:
    """Map 1×1×H×W luma in [-1, 1] to 1×2×H×W chroma in [-1, 1]."""
    if luma.data.ndim != 4 or luma.shape[1] != 1:
        raise DimensionError(f"generator input must be N×1×H×W, got {luma.shape}")
    h, w = luma.shape[2], luma.shape[3]
    if h % 8 or w % 8:
        raise DimensionError(f"input dims must be divisible by 8, got {h}×{w}")

    m1 = multires_block(store, "m1", luma)
    m2 = multires_block(store, "m2", T.maxpool2(m1))
    m3 = multires_block(store, "m3", T.maxpool2(m2))
    m4 = multires_block(store, "m4", T.maxpool2(m3))

    d1 = T.concat([m4, _skip(store, config, 4, m4)], axis=1)
    u1 = T.relu(T.conv_transpose2d(d1, store["up1.w"], store["up1.b"], 2))
    d2 = T.concat([u1, _skip(store, config, 3, m3)], axis=1)
    u2 = T.relu(T.conv_transpose2d(d2, store["up2.w"], store["up2.b"], 2))
    d3 = T.concat([u2, _skip(store, config, 2, m2)], axis=1)
    u3 = T.relu(T.conv_transpose2d(d3, store["up3.w"], store["up3.b"], 2))
    d4 = T.concat([u3, _skip(store, config, 1, m1)], axis=1)
    return T.tanh(_conv(store, "head", d4))


def generator_level_shapes(config: NetworkConfig):
    """Expected feature sizes (C, H, W) per named stage of the generator."""
    c, w, h = config.base_channels, config.width, config.height
    shapes = {}
    for i, ci in enumerate(_level_channels(c), start=1):
        s = 2 ** (i - 1)
        for tag in ("P", "M", "A"):
            shapes[f"{tag}{i}"] = (ci, h // s, w // s)
    shapes["D1"] = (4 * c, h // 8, w // 8)
    shapes["D2"] = (4 * c, h // 4, w // 4)
    shapes["D3"] = (2 * c, h // 2, w // 2)
    shapes["D4"] = (2 * c, h, w)
    shapes["C1"] = (c, h // 2, w // 2)
    shapes["C2"] = (c, h // 4, w // 4)
    shapes["C3"] = (c, h // 8, w // 8)
    shapes["C4"] = (c, h // 8, w // 8)
    shapes["C5"] = (1, h // 8, w // 8)
    return shapes


def discriminator_forward(store: dict[str, T.Tensor], image: T.Tensor) -> T.Tensor:
    """Map N×3×H×W to an N×1×H/8×W/8 patch map in (0, 1)."""
    if image.data.ndim != 4 or image.shape[1] != 3:
        raise DimensionError(f"discriminator input must be N×3×H×W, got {image.shape}")
    x = T.leaky_relu(_conv(store, "c1", image, 2, 1))
    x = T.leaky_relu(_conv(store, "c2", x, 2, 1))
    x = T.leaky_relu(_conv(store, "c3", x, 2, 1))
    x = T.leaky_relu(_conv(store, "c4", x, 1, 1))
    return T.sigmoid(_conv(store, "c5", x, 1, 1))


# ---------------------------------------------------------------------------
# value ranges at the network boundary
# ---------------------------------------------------------------------------

def luma_to_unit(y: np.ndarray) -> np.ndarray:
    """8-bit luma → [-1, 1] network input."""
    return np.asarray(y, dtype=np.float64) / 127.5 - 1.0


def chroma_to_unit(c: np.ndarray) -> np.ndarray:
    """8-bit chroma → [-1, 1] residual around neutral 128."""
    return (np.asarray(c, dtype=np.float64) - 128.0) / 127.5


def unit_to_chroma(u: np.ndarray) -> np.ndarray:
    """[-1, 1] network output → 8-bit chroma samples."""
    return round_clamp_u8(128.0 + 127.5 * np.asarray(u))


# ---------------------------------------------------------------------------
# weight file format
# ---------------------------------------------------------------------------

_MAGIC = b"CGWT"
_VERSION = 2
_HEADER = "<HIIIH"  # version, width, height, base channels, flags


def serialize_weights(store: dict[str, T.Tensor], config: NetworkConfig) -> bytes:
    """Magic, header, then every generator tensor's float64 values in the
    order `_generator_tensors` lists them; all little-endian."""
    flags = (1 if config.use_attention else 0) | (2 if config.use_glrc else 0)
    header = _MAGIC + struct.pack(
        _HEADER, _VERSION, config.width, config.height, config.base_channels, flags
    )
    return header + b"".join(
        store[name].data.astype("<f8").tobytes() for name, _, _ in _generator_tensors(config)
    )


def deserialize_weights(blob: bytes):
    """Inverse of serialize_weights; returns (store, config). The tensors are
    constants, so a forward over them records no graph."""
    r = Reader(blob, "weight file")
    if r.take(4, "magic") != _MAGIC:
        raise DataError("not a weight file: bad magic")
    version, width, height, channels, flags = r.unpack(_HEADER, "header")
    if version != _VERSION:
        raise DataError(f"unsupported weight file version {version}")
    if flags & ~3:
        raise DataError(f"unknown weight file flag bits {flags:#06x}")
    try:
        config = NetworkConfig(
            width=width,
            height=height,
            base_channels=channels,
            use_attention=bool(flags & 1),
            use_glrc=bool(flags & 2),
        )
    except ConfigError as exc:
        raise DataError(f"bad weight file header: {exc}") from exc
    ends = _value_offsets(config)
    values = np.frombuffer(r.take(8 * ends[-1], "weight values"), dtype="<f8")
    r.finish("weight values")
    store = {}
    for (name, shape, _), flat in zip(_generator_tensors(config), np.split(values, ends[:-1])):
        try:
            store[name] = T.Tensor(flat.reshape(shape))
        except NumericError as exc:
            raise DataError(f"weight file: weight {name!r} is not finite") from exc
    return store, config
