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

Weights live in a name → Tensor mapping. Every tensor is initialized
from its own seed stream derived from (seed, name), so toggling one
component on or off never shifts the values of the others.
"""

from __future__ import annotations

import io
import itertools
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .binio import Reader
from .errors import ConfigError, DataError, DimensionError

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
        if self.base_channels < 4:
            raise ConfigError(f"base_channels must be ≥ 4, got {self.base_channels}")


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, zlib.crc32(name.encode("utf-8"))))
    )


class WeightStore:
    """Ordered name → Tensor mapping for one network's parameters."""

    def __init__(self):
        self._tensors: dict[str, T.Tensor] = {}

    def create(self, name: str, shape, fan_in: int, seed: int) -> T.Tensor:
        if name in self._tensors:
            raise ConfigError(f"duplicate weight name {name!r}")
        if fan_in > 0:
            bound = 1.0 / np.sqrt(fan_in)
            data = _rng_for(seed, name).uniform(-bound, bound, size=shape)
        else:
            data = np.zeros(shape)
        t = T.Tensor(data, requires_grad=True)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> T.Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"weight {name!r} not found") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self):
        return list(self._tensors)

    def tensors(self):
        return list(self._tensors.values())

    def items(self):
        return list(self._tensors.items())

    def zero_grad(self):
        for t in self._tensors.values():
            t.zero_grad()


# ---------------------------------------------------------------------------
# weight initialization
# ---------------------------------------------------------------------------

def _conv_params(store, prefix, cin, cout, k, seed):
    store.create(f"{prefix}.w", (cout, cin, k, k), cin * k * k, seed)
    store.create(f"{prefix}.b", (cout,), 0, seed)


def _convt_params(store, prefix, cin, cout, k, seed):
    store.create(f"{prefix}.w", (cin, cout, k, k), cin * k * k, seed)
    store.create(f"{prefix}.b", (cout,), 0, seed)


def multires_split(out_channels: int):
    """Branch widths: one sixth, one third, and the remainder."""
    if out_channels < 6:
        raise ConfigError(f"multires block needs ≥ 6 output channels, got {out_channels}")
    c1 = out_channels // 6
    c2 = out_channels // 3
    return c1, c2, out_channels - c1 - c2


def _init_multires(store, prefix, cin, cout, seed):
    c1, c2, c3 = multires_split(cout)
    _conv_params(store, f"{prefix}.c1", cin, c1, 3, seed)
    _conv_params(store, f"{prefix}.c2", c1, c2, 3, seed)
    _conv_params(store, f"{prefix}.c3", c2, c3, 3, seed)
    _conv_params(store, f"{prefix}.sc", cin, cout, 1, seed)


def _init_rc(store, prefix, cin, cout, seed, use_glrc):
    c = cin
    for j in range(1, 5):
        _conv_params(store, f"{prefix}.b{j}.f3", c, cout, 3, seed)
        _conv_params(store, f"{prefix}.b{j}.f1", c, cout, 1, seed)
        c = cout
    if use_glrc:
        _conv_params(store, f"{prefix}.glrc", cin, cout, 1, seed)


def _init_attention(store, prefix, channels, seed):
    key = -(-channels // ATTN_KEY_DIVISOR)
    _conv_params(store, f"{prefix}.f", channels, key, 1, seed)
    _conv_params(store, f"{prefix}.g", channels, key, 1, seed)
    _conv_params(store, f"{prefix}.h", channels, channels, 1, seed)
    store.create(f"{prefix}.gain", (), 0, seed)  # starts at 0: pure pass-through


def _level_channels(c: int):
    # encoder output channels per level, shallow to deep
    return (c, c, 2 * c, 2 * c)


def init_generator(config: NetworkConfig, seed: int) -> WeightStore:
    store = WeightStore()
    c = config.base_channels
    chans = _level_channels(c)
    cin = 1
    for i, cout in enumerate(chans, start=1):
        _init_multires(store, f"m{i}", cin, cout, seed)
        _init_rc(store, f"rc{i}", cout, cout, seed, config.use_glrc)
        if config.use_attention:
            _init_attention(store, f"att{i}", cout, seed)
        cin = cout
    _convt_params(store, "up1", 4 * c, 2 * c, 2, seed)
    _convt_params(store, "up2", 4 * c, c, 2, seed)
    _convt_params(store, "up3", 2 * c, c, 2, seed)
    _conv_params(store, "head", 2 * c, 2, 1, seed)
    return store


def init_discriminator(config: NetworkConfig, seed: int) -> WeightStore:
    store = WeightStore()
    c = config.base_channels
    _conv_params(store, "c1", 3, c, 4, seed)
    _conv_params(store, "c2", c, c, 4, seed)
    _conv_params(store, "c3", c, c, 4, seed)
    _conv_params(store, "c4", c, c, 3, seed)
    _conv_params(store, "c5", c, 1, 3, seed)
    return store


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _conv(store, prefix, x, stride=1, padding=0):
    return T.conv2d(x, store[f"{prefix}.w"], store[f"{prefix}.b"], stride, padding)


def multires_block(store: WeightStore, prefix: str, x: T.Tensor) -> T.Tensor:
    a = T.relu(_conv(store, f"{prefix}.c1", x, 1, 1))
    b = T.relu(_conv(store, f"{prefix}.c2", a, 1, 1))
    cc = T.relu(_conv(store, f"{prefix}.c3", b, 1, 1))
    return T.concat([a, b, cc], axis=1) + _conv(store, f"{prefix}.sc", x)


def optimized_rc(store: WeightStore, prefix: str, x: T.Tensor, use_glrc: bool) -> T.Tensor:
    """Four chained conv3+conv1 residual blocks, plus a long 1×1 shortcut."""
    r = x
    for j in range(1, 5):
        r = _conv(store, f"{prefix}.b{j}.f3", r, 1, 1) + _conv(store, f"{prefix}.b{j}.f1", r)
    if use_glrc:
        return _conv(store, f"{prefix}.glrc", x) + r
    return r


def self_attention(store: WeightStore, prefix: str, x: T.Tensor) -> T.Tensor:
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


def generator_forward(store: WeightStore, config: NetworkConfig, luma: T.Tensor) -> T.Tensor:
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


def discriminator_forward(store: WeightStore, image: T.Tensor) -> T.Tensor:
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
    return np.clip(np.floor(128.0 + 127.5 * np.asarray(u) + 0.5), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# weight file format
# ---------------------------------------------------------------------------

_MAGIC = b"CGWT"
_VERSION = 1


def serialize_weights(store: WeightStore, config: NetworkConfig) -> bytes:
    """Versioned binary weight blob; integers and floats little-endian."""
    buf = io.BytesIO()
    buf.write(_MAGIC)
    flags = (1 if config.use_attention else 0) | (2 if config.use_glrc else 0)
    buf.write(struct.pack("<HIIIH", _VERSION, config.width, config.height,
                          config.base_channels, flags))
    buf.write(struct.pack("<I", len(store)))
    for name, t in store.items():
        raw = name.encode("utf-8")
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<B", t.data.ndim))
        for d in t.data.shape:
            buf.write(struct.pack("<I", d))
        buf.write(t.data.astype("<f8").tobytes())
    return buf.getvalue()


def deserialize_weights(blob: bytes):
    """Inverse of serialize_weights; returns (store, config). The tensors are
    constants, so a forward over them records no graph."""
    r = Reader(blob, "weight file")
    if r.take(4, "magic") != _MAGIC:
        raise DataError("not a weight file: bad magic")
    version, width, height, channels, flags = r.unpack("<HIIIH", "header")
    if version != _VERSION:
        raise DataError(f"unsupported weight file version {version}")
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
    (count,) = r.unpack("<I", "weight count")
    store = WeightStore()
    for i in range(count):
        (nlen,) = r.unpack("<H", f"weight {i} name length")
        name = r.text(nlen, f"weight {i} name")
        (ndim,) = r.unpack("<B", f"rank of weight {name!r}")
        shape = r.unpack(f"<{ndim}I", f"shape of weight {name!r}")
        raw = r.take(8 * math.prod(shape), f"data for weight {name!r}")
        data = np.frombuffer(raw, dtype="<f8").reshape(shape)
        store._tensors[name] = T.Tensor(data)
    r.finish("weight entries")
    found = [(name, t.shape) for name, t in store.items()]
    wanted = [(name, t.shape) for name, t in init_generator(config, 0).items()]
    for i, (got, want) in enumerate(itertools.zip_longest(found, wanted)):
        if got != want:
            raise DataError(
                f"weight entry {i} is {got}, the network in the header needs {want}"
            )
    return store, config
