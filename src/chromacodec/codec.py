"""Block-transform intra codec for single 8-bit planes.

Encodes a uint8 plane as 8×8 orthonormal DCT blocks with uniform scalar
quantization and exponential-Golomb entropy coding. The encoder builds
the run-level codewords of all blocks in one NumPy pass; the scalar
BitWriter / exp_golomb_write pair writes the same bits one codeword at
a time, and the decoder reads them back that way. It is deliberately
small: no prediction, no in-loop filters. Its job is to turn planes
into measurable bit counts whose rate and distortion move the right way
with QP, and to decode them back deterministically. The same plane and
QP always produce identical payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colorspace import round_clamp_u8
from .errors import ConfigError, DataError

BLOCK = 8


def qstep(qp: int) -> float:
    """Quantizer step, doubling every 6 QP."""
    if not 0 <= qp <= 51:
        raise ConfigError(f"qp must be in [0, 51], got {qp}")
    return float(2.0 ** ((qp - 4) / 6.0))


@dataclass(frozen=True)
class PlanePayload:
    """Entropy-coded plane: packed bits plus the exact bit count."""

    data: bytes
    bit_length: int


def _dct_matrix() -> np.ndarray:
    n = np.arange(BLOCK)
    mat = np.cos(np.pi * (2.0 * n[None, :] + 1.0) * n[:, None] / (2.0 * BLOCK))
    mat *= np.sqrt(2.0 / BLOCK)
    mat[0] = np.sqrt(1.0 / BLOCK)
    return mat


_DCT = _dct_matrix()


def dct8(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D type-II DCT of an 8×8 block or a stack of them."""
    return _DCT @ np.asarray(block, dtype=np.float64) @ _DCT.T


def idct8(coef: np.ndarray) -> np.ndarray:
    """Inverse of dct8, for an 8×8 block or a stack of them."""
    return _DCT.T @ np.asarray(coef, dtype=np.float64) @ _DCT


def _zigzag_order():
    order = []
    for d in range(2 * BLOCK - 1):
        diag = [(i, d - i) for i in range(max(0, d - BLOCK + 1), min(d, BLOCK - 1) + 1)]
        if d % 2 == 0:
            diag.reverse()
        order.extend(diag)
    return order


_ZIGZAG = _zigzag_order()
_ZZ_ROWS = np.array([i for i, _ in _ZIGZAG])
_ZZ_COLS = np.array([j for _, j in _ZIGZAG])

_EOB = 64  # runs occupy [0, 63], so 64 is free to mark end-of-block
_EOB_BITS = 2 * (_EOB + 1).bit_length() - 1  # every coded block ends in these 13 bits


class BitWriter:
    """MSB-first bit packer: codewords are kept as '0'/'1' strings."""

    def __init__(self):
        self._words = []

    def write(self, value: int, width: int):
        if not 0 <= value < (1 << width):
            raise DataError(f"value {value} does not fit in {width} bits")
        self._words.append(bin(value | 1 << width)[3:])  # the marker 1 keeps leading zeros

    def payload(self) -> PlanePayload:
        bits = "".join(self._words)
        padded = "1" + bits + "0" * (-len(bits) % 8)  # the leading 1 fills a byte of its own
        data = int(padded, 2).to_bytes(len(padded) // 8 + 1, "big")[1:]
        return PlanePayload(data, len(bits))


class BitReader:
    """Reads back what BitWriter wrote, in order, never past its bytes."""

    def __init__(self, data: bytes, bit_length: int):
        self._bits = bin(int.from_bytes(b"\x01" + data, "big"))[3:]
        self._pos = 0
        self._limit = min(bit_length, len(self._bits))

    def read(self, width: int) -> int:
        end = self._pos + width
        if end > self._limit:
            raise DataError("bit stream exhausted")
        value = int(self._bits[self._pos : end] or "0", 2)
        self._pos = end
        return value


def exp_golomb_write(writer: BitWriter, value: int):
    """Order-0 exp-Golomb: 0→'1', 1→'010', 2→'011', ..."""
    if value < 0:
        raise DataError(f"exp-Golomb codes unsigned values, got {value}")
    n = value + 1
    writer.write(n, 2 * n.bit_length() - 1)


def exp_golomb_read(reader: BitReader) -> int:
    """H.264 ue(v): count the leading zeros, then read that many bits past the 1."""
    pos = reader._pos
    one = reader._bits.find("1", pos, min(pos + 65, reader._limit))
    if one < 0:
        if pos + 65 <= reader._limit:
            raise DataError("exp-Golomb prefix too long: corrupt stream")
        raise DataError("bit stream exhausted")
    reader._pos = one
    return reader.read(one - pos + 1) - 1


def _signed_to_code(z):
    # 1→1, -1→2, 2→3, ...; elementwise on integer arrays too
    return 2 * abs(z) - (z > 0)


def _code_to_signed(c: int) -> int:
    # c >= 1 here; zero levels are expressed through runs, never coded
    return (c + 1) // 2 if c % 2 else -(c // 2)


def _pad_to_blocks(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    ph = (-h) % BLOCK
    pw = (-w) % BLOCK
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


def _to_blocks(padded: np.ndarray) -> np.ndarray:
    h, w = padded.shape
    return (
        padded.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK)
        .transpose(0, 2, 1, 3)
        .reshape(-1, BLOCK, BLOCK)
    )


def _from_blocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    bh, bw = h // BLOCK, w // BLOCK
    return (
        blocks.reshape(bh, bw, BLOCK, BLOCK).transpose(0, 2, 1, 3).reshape(h, w)
    )


# _TAIL[w] keeps the last w of a codeword's 32 unpacked bits
_TAIL = np.arange(32) >= 32 - np.arange(33)[:, None]
_CHUNK_BLOCKS = 512  # bounds the 64 bytes per codeword that _codeword_bits expands into


def _codeword_bits(scans: np.ndarray) -> np.ndarray:
    """The exp-Golomb bits, one uint8 each, of a stack of zigzag scans.

    Each block codes (run, level) per nonzero coefficient, then an EOB.
    All blocks are coded in one array pass, without a loop per codeword.
    """
    coded = np.zeros((len(scans), _EOB + 1), dtype=np.int64)
    coded[:, :_EOB] = scans
    mask = coded != 0
    mask[:, _EOB] = True  # column 64 is the block's EOB
    at = np.flatnonzero(mask)  # each block's nonzeros, then its EOB
    idx = at % (_EOB + 1)
    z = coded.ravel()[at]
    eob = idx == _EOB
    prev = np.empty_like(idx)
    prev[0] = -1
    prev[1:] = np.where(eob[:-1], -1, idx[:-1])  # runs restart after each EOB
    # per entry the codewords of run and level; an EOB entry codes only 64
    n = np.empty((len(idx), 2), dtype=np.uint32)
    n[:, 0] = np.where(eob, _EOB, idx - prev - 1) + 1
    n[:, 1] = _signed_to_code(z) + 1
    width = 2 * np.frexp(n)[1] - 1  # frexp's exponent is n.bit_length(), exactly
    width[eob, 1] = 0
    bits = np.unpackbits(n.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
    return bits[_TAIL[width.ravel()]]


def encode_plane(plane: np.ndarray, qp: int) -> PlanePayload:
    """Encode one uint8 plane; blocks in raster order, one EOB each."""
    step = qstep(qp)
    arr = np.asarray(plane)
    if arr.dtype != np.uint8:  # which also keeps every codeword within 23 bits
        raise DataError(f"encode_plane codes uint8 planes, got {arr.dtype}")
    if arr.ndim != 2 or arr.size == 0:
        raise DataError(f"encode_plane needs a non-empty 2-D plane, got shape {arr.shape}")
    padded = _pad_to_blocks(arr.astype(np.float64) - 128.0)
    coefs = dct8(_to_blocks(padded))
    # round half away from zero so the quantizer is symmetric in sign
    q = np.sign(coefs) * np.floor(np.abs(coefs) / step + 0.5)
    scans = q[:, _ZZ_ROWS, _ZZ_COLS].astype(np.int64)
    bits = np.concatenate(
        [_codeword_bits(scans[i : i + _CHUNK_BLOCKS]) for i in range(0, len(scans), _CHUNK_BLOCKS)]
    )
    return PlanePayload(np.packbits(bits).tobytes(), len(bits))


def decode_plane(payload: PlanePayload, dims, qp: int) -> np.ndarray:
    """Decode to an 8-bit plane of the given (width, height)."""
    step = qstep(qp)
    width, height = dims
    if width <= 0 or height <= 0:
        raise DataError(f"invalid plane dims {width}×{height}")
    ph = height + (-height) % BLOCK
    pw = width + (-width) % BLOCK
    nblocks = (ph // BLOCK) * (pw // BLOCK)
    if _EOB_BITS * nblocks > payload.bit_length:  # checked before allocating for the blocks
        raise DataError(f"{payload.bit_length} bits cannot hold {nblocks} coded blocks")

    reader = BitReader(payload.data, payload.bit_length)
    scans = np.zeros((nblocks, BLOCK * BLOCK), dtype=np.float64)
    for b in range(nblocks):
        pos = 0
        while True:
            run = exp_golomb_read(reader)
            if run == _EOB:
                break
            if run > 63:
                raise DataError(f"run {run} out of range in block {b}")
            level = _code_to_signed(exp_golomb_read(reader))
            pos += run
            if pos >= BLOCK * BLOCK:
                raise DataError(f"coefficient index overflow in block {b}")
            scans[b, pos] = level
            pos += 1
    # the container stores whole bytes, so at most 7 padding bits are legitimate
    unread = reader._limit - reader._pos
    if unread > 7:
        raise DataError(f"{unread} bits left unread after {nblocks} coded blocks")

    coefs = np.zeros((nblocks, BLOCK, BLOCK))
    coefs[:, _ZZ_ROWS, _ZZ_COLS] = scans * step
    padded = _from_blocks(idct8(coefs), ph, pw) + 128.0
    return round_clamp_u8(padded)[:height, :width]
