"""Intra codec checks: transform oracle, entropy stage, rate/distortion laws."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacodec import ConfigError, DataError
from chromacodec import codec

SRC = Path(__file__).resolve().parent.parent / "src"


def direct_dct8(block):
    """Reference DCT straight from the definition, O(n^4)."""
    n = 8
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            cu = np.sqrt(1.0 / n) if u == 0 else np.sqrt(2.0 / n)
            cv = np.sqrt(1.0 / n) if v == 0 else np.sqrt(2.0 / n)
            acc = 0.0
            for x in range(n):
                for y in range(n):
                    acc += (
                        block[x, y]
                        * np.cos((2 * x + 1) * u * np.pi / (2 * n))
                        * np.cos((2 * y + 1) * v * np.pi / (2 * n))
                    )
            out[u, v] = cu * cv * acc
    return out


def golomb_bits(value):
    w = codec.BitWriter()
    codec.exp_golomb_write(w, value)
    p = w.payload()
    return "".join(
        str((p.data[i >> 3] >> (7 - (i & 7))) & 1) for i in range(p.bit_length)
    )


def loop_encode_plane(plane, qp):
    """The per-codeword encoder that the array pass replaced: the oracle."""
    padded = codec._pad_to_blocks(plane.astype(np.float64) - 128.0)
    coefs = codec.dct8(codec._to_blocks(padded))
    q = np.sign(coefs) * np.floor(np.abs(coefs) / codec.qstep(qp) + 0.5)
    writer = codec.BitWriter()
    for scan in q[:, codec._ZZ_ROWS, codec._ZZ_COLS].astype(np.int64):
        prev = -1
        for idx in np.nonzero(scan)[0]:
            codec.exp_golomb_write(writer, int(idx) - prev - 1)
            codec.exp_golomb_write(writer, codec._signed_to_code(int(scan[idx])))
            prev = int(idx)
        codec.exp_golomb_write(writer, codec._EOB)
    return writer.payload()


@st.composite
def planes(draw):
    h, w = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["noise", "constant", "ramp"]))
    if kind == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.integers(0, 256, (h, w), dtype=np.uint8)
    if kind == "constant":
        return np.full((h, w), draw(st.integers(0, 255)), dtype=np.uint8)
    dy, dx = draw(st.integers(-16, 16)), draw(st.integers(-16, 16))
    ramp = draw(st.integers(0, 255)) + dy * np.arange(h)[:, None] + dx * np.arange(w)
    return np.clip(ramp, 0, 255).astype(np.uint8)


def golomb_codeword(value):
    """Order-0 exp-Golomb from its definition: k zeros, then value + 1 in k + 1 bits."""
    n = value + 1
    return "0" * (n.bit_length() - 1) + format(n, "b")


class TestTransform:
    def test_matches_direct_definition(self):
        rng = np.random.default_rng(20)
        block = rng.uniform(-128, 128, size=(8, 8))
        assert np.max(np.abs(codec.dct8(block) - direct_dct8(block))) < 1e-10

    def test_constant_block_dc(self):
        coef = codec.dct8(np.full((8, 8), 9.0))
        assert abs(coef[0, 0] - 72.0) < 1e-10
        coef[0, 0] = 0.0
        assert np.max(np.abs(coef)) < 1e-10

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(21)
        block = rng.uniform(-128, 128, size=(8, 8))
        assert np.max(np.abs(codec.idct8(codec.dct8(block)) - block)) < 1e-10

    def test_block_stack_matches_direct_definition(self):
        rng = np.random.default_rng(29)
        stack = rng.uniform(-128, 128, size=(3, 8, 8))
        coefs = codec.dct8(stack)
        for block, coef in zip(stack, coefs):
            assert np.max(np.abs(coef - direct_dct8(block))) < 1e-10
        assert np.max(np.abs(codec.idct8(coefs) - stack)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(22)
        block = rng.uniform(-128, 128, size=(8, 8))
        coef = codec.dct8(block)
        assert abs((block**2).sum() - (coef**2).sum()) < 1e-9

    def test_qstep_values(self):
        assert codec.qstep(4) == 1.0
        assert codec.qstep(10) == 2.0
        assert abs(codec.qstep(27) - 2.0 ** (23 / 6)) < 1e-12

    def test_qp_range_checked(self):
        with pytest.raises(ConfigError):
            codec.encode_plane(np.zeros((8, 8), dtype=np.uint8), 52)
        with pytest.raises(ConfigError):
            codec.qstep(-1)


class TestEntropy:
    def test_known_codewords(self):
        assert golomb_bits(0) == "1"
        assert golomb_bits(1) == "010"
        assert golomb_bits(2) == "011"
        assert golomb_bits(3) == "00100"

    def test_round_trip_exhaustive(self):
        w = codec.BitWriter()
        for v in range(10_001):
            codec.exp_golomb_write(w, v)
        p = w.payload()
        r = codec.BitReader(p.data, p.bit_length)
        for v in range(10_001):
            assert codec.exp_golomb_read(r) == v

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            codec.exp_golomb_write(codec.BitWriter(), -1)

    def test_reader_stops_at_bit_length(self):
        w = codec.BitWriter()
        codec.exp_golomb_write(w, 0)
        p = w.payload()
        r = codec.BitReader(p.data, p.bit_length)
        codec.exp_golomb_read(r)
        with pytest.raises(DataError):
            r.read(1)

    def test_zero_width_write_rejects_nonzero_value(self):
        w = codec.BitWriter()
        w.write(1, 3)
        with pytest.raises(DataError):
            w.write(6, 0)
        w.write(0, 0)
        assert w.payload() == codec.PlanePayload(b"\x20", 3)

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2**62 - 1), max_size=200))
    def test_round_trip_property(self, values):
        w = codec.BitWriter()
        for v in values:
            codec.exp_golomb_write(w, v)
        p = w.payload()
        r = codec.BitReader(p.data, p.bit_length)
        assert [codec.exp_golomb_read(r) for _ in values] == values
        with pytest.raises(DataError):
            codec.exp_golomb_read(r)

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2**62 - 1), max_size=50))
    def test_payload_bits_are_the_codewords(self, values):
        w = codec.BitWriter()
        for v in values:
            codec.exp_golomb_write(w, v)
        p = w.payload()
        want = "".join(golomb_codeword(v) for v in values)
        bits = "".join(format(b, "08b") for b in p.data)
        assert p.bit_length == len(want)
        assert bits == want + "0" * (-len(want) % 8)
        r = codec.BitReader(p.data, p.bit_length)
        r.read(len(want))
        with pytest.raises(DataError):
            r.read(1)

    @given(st.data(), st.integers(0, 80))
    def test_write_rejects_values_outside_width(self, data, width):
        value = data.draw(
            st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << width))
        )
        w = codec.BitWriter()
        with pytest.raises(DataError):
            w.write(value, width)
        w.write(data.draw(st.integers(0, (1 << width) - 1)), width)
        assert w.payload().bit_length == width

    def test_signed_mapping(self):
        pairs = [(1, 1), (-1, 2), (2, 3), (-2, 4), (3, 5)]
        for z, c in pairs:
            assert codec._signed_to_code(z) == c
            assert codec._code_to_signed(c) == z

    def test_zigzag_prefix(self):
        want = [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (0, 3), (1, 2), (2, 1), (3, 0)]
        assert codec._ZIGZAG[:10] == want
        assert sorted(codec._ZIGZAG) == [(i, j) for i in range(8) for j in range(8)]


class TestPlaneCodec:
    def test_constant_plane_is_all_eob(self):
        plane = np.full((32, 32), 128, dtype=np.uint8)
        payload = codec.encode_plane(plane, 27)
        blocks = 16
        assert len(payload.data) < 2 * blocks
        back = codec.decode_plane(payload, (32, 32), 27)
        assert np.array_equal(back, plane)

    @pytest.mark.parametrize("qp", [27, 32, 37, 42])
    def test_distortion_bound(self, qp):
        rng = np.random.default_rng(23)
        plane = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        back = codec.decode_plane(
            codec.encode_plane(plane, qp), (64, 64), qp
        )
        mse = float(np.mean((back.astype(float) - plane.astype(float)) ** 2))
        assert mse <= (codec.qstep(qp) / 2.0) ** 2 + 0.5

    def test_bitrate_monotone_in_qp(self):
        rng = np.random.default_rng(24)
        plane = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        bits = [
            codec.encode_plane(plane, qp).bit_length
            for qp in (27, 32, 37, 42)
        ]
        assert bits[0] > bits[1] > bits[2] > bits[3]

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(25)
        plane = rng.integers(0, 256, size=(40, 24), dtype=np.uint8)
        qp = 32
        a = codec.encode_plane(plane, qp)
        b = codec.encode_plane(plane, qp)
        assert a.data == b.data and a.bit_length == b.bit_length

    def test_non_multiple_of_8_dims(self):
        rng = np.random.default_rng(26)
        plane = rng.integers(0, 256, size=(13, 21), dtype=np.uint8)
        qp = 27
        back = codec.decode_plane(codec.encode_plane(plane, qp), (21, 13), qp)
        assert back.shape == (13, 21)
        mse = float(np.mean((back.astype(float) - plane.astype(float)) ** 2))
        assert mse <= (codec.qstep(qp) / 2.0) ** 2 + 0.5

    def test_smooth_content_codes_smaller(self):
        grad = np.tile(np.arange(64, dtype=np.uint8) * 2, (64, 1))
        rng = np.random.default_rng(27)
        noise = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        qp = 32
        assert (
            codec.encode_plane(grad, qp).bit_length
            < codec.encode_plane(noise, qp).bit_length
        )

    @settings(deadline=None, max_examples=150)
    @given(planes(), st.integers(0, 51))
    def test_matches_per_codeword_encoder(self, plane, qp):
        assert codec.encode_plane(plane, qp) == loop_encode_plane(plane, qp)

    @pytest.mark.parametrize(
        "plane",
        [
            np.full((8, 8), np.nan),
            np.full((8, 8), 1e30),
            np.full((8, 8), 128.0),
            np.full((8, 8), -5000, dtype=np.int32),
            np.full((8, 8), 128, dtype=np.int32),
        ],
        ids=["nan", "1e30", "float", "int32-out-of-range", "int32-in-range"],
    )
    def test_non_uint8_plane_rejected(self, plane):
        with pytest.raises(DataError, match="uint8"):
            codec.encode_plane(plane, 27)

    def test_peak_memory_bounded(self):
        # 41,788,516 bytes is the traced peak of the per-codeword encoder
        # on this plane, whose 4096 blocks take 526,608 codewords
        plane = np.random.default_rng(29).integers(0, 256, (512, 512), dtype=np.uint8)
        tracemalloc.start()
        try:
            codec.encode_plane(plane, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 41_788_516

    def test_empty_plane_rejected(self):
        with pytest.raises(DataError):
            codec.encode_plane(np.zeros((0, 8), dtype=np.uint8), 27)

    def test_declared_blocks_need_their_eob_bits(self):
        # a constant plane is one 13-bit EOB per block, exactly the bound
        qp = 27
        payload = codec.encode_plane(np.full((16, 16), 128, dtype=np.uint8), qp)
        assert payload.bit_length == 4 * 13
        assert codec.decode_plane(payload, (16, 16), qp).shape == (16, 16)
        with pytest.raises(DataError, match="cannot hold 6 coded blocks"):
            codec.decode_plane(payload, (24, 16), qp)

    @pytest.mark.parametrize("tail, dims", [(b"\xff" * 100, (16, 16)), (b"", (8, 8))])
    def test_unread_bits_are_data_error(self, tail, dims):
        # a stored payload is whole bytes, so it may end in up to 7 padding
        # bits; 100 appended bytes, or luma read at chroma dims, leave more
        qp = 32
        plane = np.random.default_rng(30).integers(0, 256, (16, 16), dtype=np.uint8)
        payload = codec.encode_plane(plane, qp)
        stored = codec.PlanePayload(payload.data, 8 * len(payload.data))
        assert 0 < stored.bit_length - payload.bit_length <= 7
        assert np.array_equal(
            codec.decode_plane(stored, (16, 16), qp),
            codec.decode_plane(payload, (16, 16), qp),
        )
        data = payload.data + tail
        with pytest.raises(DataError, match="left unread"):
            codec.decode_plane(codec.PlanePayload(data, 8 * len(data)), dims, qp)

    def test_huge_declared_dims_allocate_nothing(self):
        # 65535×65535 is 67,108,864 blocks, 32 GiB of coefficients; the
        # address-space cap turns any allocation of that size into a MemoryError
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
            import numpy as np
            from chromacodec import DataError, codec
            qp = 32
            payload = codec.encode_plane(np.zeros((16, 16), dtype=np.uint8), qp)
            try:
                codec.decode_plane(payload, (65535, 65535), qp)
            except DataError as exc:
                print(exc)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "cannot hold 67108864 coded blocks" in proc.stdout

    @settings(deadline=None)
    @given(st.binary(max_size=256), st.integers(1, 64), st.integers(1, 64), st.integers(0, 51))
    def test_arbitrary_bytes_decode_or_raise_data_error(self, data, width, height, qp):
        payload = codec.PlanePayload(data, 8 * len(data))
        try:
            plane = codec.decode_plane(payload, (width, height), qp)
        except DataError:
            return
        assert plane.dtype == np.uint8 and plane.shape == (height, width)

    def test_low_qp_near_lossless(self):
        rng = np.random.default_rng(28)
        plane = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        qp = 0
        back = codec.decode_plane(codec.encode_plane(plane, qp), (16, 16), qp)
        assert np.max(np.abs(back.astype(int) - plane.astype(int))) <= 1
