"""GOP structure, container format, and decoder path equivalence."""

import functools
import os
import struct
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacodec import ChromaCodecError, ConfigError, DataError, DimensionError, NumericError
from chromacodec import codec
from chromacodec import colorspace as cs
from chromacodec import network, pipeline
from chromacodec import tensor as T

SRC = Path(__file__).resolve().parent.parent / "src"


def make_sequence(n, w=16, h=16, seed=0):
    rng = np.random.default_rng(seed)
    return [
        cs.rgb_to_ycbcr(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        for _ in range(n)
    ]


def tiny_net(w=16, h=16, seed=0, zero=False):
    cfg = network.NetworkConfig(width=w, height=h, base_channels=8)
    store = network.init_generator(cfg, seed)
    if zero:
        for t in store.values():
            t.data[...] = 0.0
    return store, cfg


class TestGopStructure:
    def test_twelve_frames(self):
        assert pipeline.split_gops(12, 6).anchors == (0, 6)

    def test_single_frame(self):
        assert pipeline.split_gops(1, 6).anchors == (0,)

    def test_thirteen_frames(self):
        assert pipeline.split_gops(13, 6).anchors == (0, 6, 12)

    def test_is_anchor(self):
        gop = pipeline.split_gops(12, 6)
        assert gop.is_anchor(0) and gop.is_anchor(6)
        assert not gop.is_anchor(1) and not gop.is_anchor(11)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.split_gops(0, 6)
        with pytest.raises(ConfigError):
            pipeline.split_gops(12, 0)
        with pytest.raises(ConfigError):  # the container header holds one byte
            pipeline.split_gops(12, 256)
        assert pipeline.split_gops(12, 255).anchors == (0,)


class TestEncode:
    def test_record_kinds(self):
        frames = make_sequence(12)
        store, cfg = tiny_net()
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(12, 6), store, cfg)
        kinds = [r.kind for r in video.records]
        assert kinds.count(pipeline.ANCHOR) == 2
        assert kinds.count(pipeline.LUMA_ONLY) == 10
        assert kinds[0] == pipeline.ANCHOR and kinds[6] == pipeline.ANCHOR

    def test_luma_only_raw_volume_is_two_thirds(self):
        w = h = 16
        luma_raw = cs.mode_volume(w, h, cs.SubsamplingMode.S400)
        full_raw = cs.mode_volume(w, h, cs.SubsamplingMode.S420)
        assert luma_raw * 3 == full_raw * 2

    def test_bits_decrease_with_qp(self):
        frames = make_sequence(6, seed=2)
        store, cfg = tiny_net()
        gop = pipeline.split_gops(6, 6)
        totals = []
        for qp in (27, 32, 37, 42):
            video, _ = pipeline.encode_sequence(frames, qp, gop, store, cfg)
            totals.append(pipeline.bitrate_report(video)["total_bits"])
        assert totals[0] > totals[1] > totals[2] > totals[3]

    def test_dims_must_divide_by_8(self):
        rng = np.random.default_rng(3)
        frames = [cs.rgb_to_ycbcr(rng.integers(0, 256, size=(12, 16, 3), dtype=np.uint8))]
        store, cfg = tiny_net()
        with pytest.raises(Exception):
            pipeline.encode_sequence(frames, 32, pipeline.split_gops(1, 6), store, cfg)

    def test_kbps_formula(self):
        frames = make_sequence(6, seed=4)
        store, cfg = tiny_net()
        video, kbps = pipeline.encode_sequence(
            frames, 32, pipeline.split_gops(6, 6), store, cfg, fps=30.0
        )
        total_bits = len(pipeline.serialize_video(video)) * 8
        assert abs(kbps - total_bits * 30.0 / (1000.0 * 6)) < 1e-12

    def test_stream_embeds_the_weight_file_as_given(self):
        # weights fit any frame size: a config built for other dims is not rebound
        frames = make_sequence(2)
        store, cfg = tiny_net(w=32, h=24)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(2, 6), store, cfg)
        assert video.weight_blob == network.serialize_weights(store, cfg)


class TestContainer:
    def test_round_trip_byte_exact(self):
        frames = make_sequence(7, seed=5)
        store, cfg = tiny_net(seed=5)
        video, _ = pipeline.encode_sequence(frames, 37, pipeline.split_gops(7, 6), store, cfg)
        blob = pipeline.serialize_video(video)
        back = pipeline.deserialize_video(blob)
        assert pipeline.serialize_video(back) == blob
        for a, b in zip(video.records, back.records):
            assert a.kind == b.kind
            assert tuple(p.data for p in a.payloads) == tuple(p.data for p in b.payloads)

    def test_bad_magic(self):
        with pytest.raises(DataError):
            pipeline.deserialize_video(b"NOPE" + b"\x00" * 40)

    def test_truncated_names_frame(self):
        frames = make_sequence(3, seed=7)
        store, cfg = tiny_net(seed=7)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(3, 6), store, cfg)
        blob = pipeline.serialize_video(video)
        with pytest.raises(DataError, match="frame"):
            pipeline.deserialize_video(blob[:-10])

    # header bytes after the 4-byte magic: version 4-5, width 6-7, height 8-9,
    # QP 10, GOP 11, frame count 12-15 (a 2-frame stream: byte 12 = 0 makes it 0)
    @pytest.mark.parametrize("offset,value", [(10, 60), (10, 255), (11, 0), (12, 0)])
    def test_out_of_range_header_byte_is_data_error(self, offset, value):
        frames = make_sequence(2, seed=10)
        store, cfg = tiny_net(seed=10)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(2, 6), store, cfg)
        blob = bytearray(pipeline.serialize_video(video))
        blob[offset] = value
        with pytest.raises(DataError, match="header"):
            pipeline.deserialize_video(bytes(blob))

    def test_every_other_gop_byte_is_data_error(self):
        # records carry no kind: the GOP byte alone says which frames have three
        # planes. A wrong GOP either changes the plane count, which the parse
        # catches, or regroups the planes so that a chroma payload is decoded
        # at luma dims and runs out of bits
        frames = make_sequence(12, seed=16)
        store, cfg = tiny_net(seed=16)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(12, 6), store, cfg)
        blob = bytearray(pipeline.serialize_video(video))
        assert blob[11] == 6
        for gop in set(range(256)) - {6}:
            blob[11] = gop
            with pytest.raises(DataError):
                pipeline.decode_sequence(pipeline.deserialize_video(bytes(blob)))

    def test_version_1_stream_is_data_error(self):
        frames = make_sequence(2, seed=17)
        store, cfg = tiny_net(seed=17)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(2, 6), store, cfg)
        blob = pipeline.serialize_video(video)
        assert blob[4:6] == struct.pack("<H", 2)
        with pytest.raises(DataError, match="unsupported container version 1"):
            pipeline.deserialize_video(blob[:4] + struct.pack("<H", 1) + blob[6:])

    def test_trailing_bytes_rejected(self):
        frames = make_sequence(1, seed=8)
        store, cfg = tiny_net(seed=8)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(1, 6), store, cfg)
        with pytest.raises(DataError):
            pipeline.deserialize_video(pipeline.serialize_video(video) + b"\x00")

    def test_bit_accounting_matches_stream(self):
        frames = make_sequence(9, seed=9)
        store, cfg = tiny_net(seed=9)
        video, _ = pipeline.encode_sequence(frames, 27, pipeline.split_gops(9, 6), store, cfg)
        report = pipeline.bitrate_report(video)
        assert report["total_bits"] == len(pipeline.serialize_video(video)) * 8
        parts = (
            report["anchor_bits"]
            + report["luma_bits"]
            + report["model_bits"]
            + report["overhead_bits"]
        )
        assert parts == report["total_bits"]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 13), st.integers(1, 7))
    def test_overhead_is_magic_header_and_plane_lengths(self, frame_count, gop_size):
        store, cfg = tiny_net()
        gop = pipeline.split_gops(frame_count, gop_size)
        video, _ = pipeline.encode_sequence(make_sequence(frame_count, 8, 8), 32, gop, store, cfg)
        planes = sum(len(r.payloads) for r in video.records)
        assert planes == frame_count + 2 * len(gop.anchors)
        # 4-byte magic, 16-byte header, one <I length per plane
        assert pipeline.bitrate_report(video)["overhead_bits"] == 8 * (20 + 4 * planes)


@functools.lru_cache(maxsize=1)
def tiny_stream():
    """A valid 4-frame 16×16 stream, GOP 3, attention off: (video, bytes)."""
    cfg = network.NetworkConfig(width=16, height=16, use_attention=False)
    store = network.init_generator(cfg, seed=0)
    frames = make_sequence(4, seed=11)
    video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(4, 3), store, cfg)
    return video, pipeline.serialize_video(video)


def decode_or_error(parse, data):
    """Parse then decode; malformed input may raise only ChromaCodecError."""
    try:
        video = parse(data)
        frames = pipeline.decode_sequence(video)
    except ChromaCodecError:
        return
    assert len(frames) == video.frame_count


def mutate(data, edits):
    out = bytearray(data)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


class TestMalformedContainers:
    """Any truncation or byte mutation of a valid stream or weight file
    parses and decodes, or raises ChromaCodecError: never anything else."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_truncated_stream(self, data):
        _, stream = tiny_stream()
        n = data.draw(st.integers(0, len(stream) - 1))
        decode_or_error(pipeline.deserialize_video, stream[:n])

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_mutated_stream(self, data):
        video, stream = tiny_stream()
        records_at = 20 + len(video.weight_blob)  # magic, header, weight file
        # the weight values are most of the stream; aim at the headers and records too
        pos = st.one_of(
            st.integers(0, 64), st.integers(records_at, len(stream) - 1), st.integers()
        )
        edits = data.draw(st.lists(st.tuples(pos, st.integers(0, 255)), min_size=1, max_size=4))
        decode_or_error(pipeline.deserialize_video, mutate(stream, edits))

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_truncated_weight_file(self, data):
        video, _ = tiny_stream()
        n = data.draw(st.integers(0, len(video.weight_blob) - 1))
        decode_or_error(lambda blob: replace(video, weight_blob=blob), video.weight_blob[:n])

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.tuples(st.one_of(st.integers(0, 40), st.integers()), st.integers(0, 255)),
                    min_size=1, max_size=4))
    def test_mutated_weight_file(self, edits):
        video, _ = tiny_stream()
        blob = mutate(video.weight_blob, edits)
        decode_or_error(lambda b: replace(video, weight_blob=b), blob)


class TestDecode:
    @pytest.mark.parametrize("attention", [False, True], ids=["no_att", "att"])
    @pytest.mark.parametrize("channels", [8, 64])
    def test_memory_budget_applies_only_to_colorized_frames(self, attention, channels):
        # planes with no bits: decode_plane refuses them before it allocates
        cfg = network.NetworkConfig(base_channels=channels, use_attention=attention)
        blob = network.serialize_weights(network.init_generator(cfg, 0), cfg)
        fixed, per_channel = pipeline._FORWARD_BYTES_PER_PIXEL[attention]
        w = 1024
        h = 8 * (pipeline.DECODE_MEMORY_BUDGET // ((fixed + per_channel * channels) * w * 8) + 1)
        empty = codec.PlanePayload(b"", 0)

        def video(height, gop_size):
            gop = pipeline.split_gops(2, gop_size)
            records = tuple(
                pipeline.FrameRecord(pipeline.ANCHOR, (empty,) * 3) if gop.is_anchor(i)
                else pipeline.FrameRecord(pipeline.LUMA_ONLY, (empty,))
                for i in range(2)
            )
            return pipeline.CompressedVideo(w, height, 32, gop_size, blob, records)

        with pytest.raises(DataError, match=f"colorizing {w}x{h} frames .* budget"):
            pipeline.decode_sequence(video(h, 6))
        for height, gop_size in ((h - 8, 6), (h, 1)):  # under the budget; nothing to colorize
            with pytest.raises(DataError, match="frame 0: 0 bits cannot hold"):
                pipeline.decode_sequence(video(height, gop_size))

    def test_uncodable_dims_are_refused_before_any_plane(self):
        # planes with no bits, as above: decoding any of them would fail
        store, cfg = tiny_net()
        blob = network.serialize_weights(store, cfg)
        empty = codec.PlanePayload(b"", 0)

        def video(gop_size):
            anchor = pipeline.FrameRecord(pipeline.ANCHOR, (empty,) * 3)
            second = pipeline.FrameRecord(pipeline.LUMA_ONLY, (empty,)) if gop_size > 1 else anchor
            return pipeline.CompressedVideo(20, 16, 32, gop_size, blob, (anchor, second))

        with pytest.raises(DimensionError, match="frame dims must be divisible by 8, got 20×16"):
            pipeline.decode_sequence(video(6))
        with pytest.raises(DataError, match="frame 0: 0 bits cannot hold"):
            pipeline.decode_sequence(video(1))  # only anchors: nothing to colorize

    def test_anchor_path_equals_standalone_codec(self):
        frames = make_sequence(1, seed=10)
        store, cfg = tiny_net(seed=10)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(1, 6), store, cfg)
        decoded = pipeline.decode_sequence(video)[0]

        qp = 32
        sub = cs.subsample(frames[0])
        want_y = codec.decode_plane(
            codec.encode_plane(sub.y.samples, qp), (16, 16), qp
        )
        want_cb = codec.decode_plane(
            codec.encode_plane(sub.cb.samples, qp), (8, 8), qp
        )
        manual = cs.upsample(
            cs.Frame(
                cs.Plane(want_y),
                cs.Plane(want_cb),
                cs.Plane(
                    codec.decode_plane(
                        codec.encode_plane(sub.cr.samples, qp), (8, 8), qp
                    )
                ),
                cs.SubsamplingMode.S420,
            )
        )
        assert np.array_equal(decoded.y.samples, manual.y.samples)
        assert np.array_equal(decoded.cb.samples, manual.cb.samples)
        assert np.array_equal(decoded.cr.samples, manual.cr.samples)

    def test_nonanchor_luma_path_equivalence(self):
        frames = make_sequence(2, seed=11)
        store, cfg = tiny_net(seed=11)
        video, _ = pipeline.encode_sequence(frames, 37, pipeline.split_gops(2, 6), store, cfg)
        decoded = pipeline.decode_sequence(video)
        standalone = codec.decode_plane(video.records[1].payloads[0], (16, 16), 37)
        assert np.array_equal(decoded[1].y.samples, standalone)

    def test_zero_generator_gives_neutral_chroma(self):
        frames = make_sequence(2, seed=12)
        store, cfg = tiny_net(seed=12, zero=True)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(2, 6), store, cfg)
        decoded = pipeline.decode_sequence(video)
        assert np.all(decoded[1].cb.samples == 128)
        assert np.all(decoded[1].cr.samples == 128)

    def test_nonfinite_colorizer_output_is_numeric_error(self):
        # finite but huge weights overflow inside the generator
        frames = make_sequence(2, seed=14)
        store, cfg = tiny_net(seed=14)
        store["m1.sc.w"].data[...] = 1e300
        store["att1.gain"].data[...] = 1e300
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(2, 6), store, cfg)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="frame 1: colorizer"):
            pipeline.decode_sequence(video)

    def test_out_of_memory_names_the_frame_size(self, monkeypatch):
        # the budget admits 16×16; a MemoryError past it still names the frame
        video, _ = tiny_stream()

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(network, "generator_forward", out_of_memory)
        with pytest.raises(DataError, match="frame 1: not enough memory for 16x16 frames"):
            pipeline.decode_sequence(video)

    def test_overflowing_colorizer_warns_nothing(self):
        # the finiteness check reports the failure; numpy stays silent before it
        frames = make_sequence(2, seed=14)
        store, cfg = tiny_net(seed=14)
        store["m1.sc.w"].data[...] = 1e300
        store["att1.gain"].data[...] = 1e300
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(2, 6), store, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="frame 1: colorizer"):
                pipeline.decode_sequence(video)

    def test_176x144_decode_peaks_under_60_mb(self):
        # loaded weights are constants, so the generator keeps no graph and
        # frees each activation after its last use (over 110 MB when it did not),
        # and each convolution unrolls one block of rows (68 MB with a whole-frame
        # im2col copy per convolution).
        # VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts from this
        # process's own peak
        code = textwrap.dedent("""
            import numpy as np
            from chromacodec import colorspace as cs, network, pipeline
            cfg = network.NetworkConfig(width=176, height=144, use_attention=False)
            rng = np.random.default_rng(0)
            frames = [cs.rgb_to_ycbcr(rng.integers(0, 256, (144, 176, 3), dtype=np.uint8))
                      for _ in range(2)]
            video, _ = pipeline.encode_sequence(
                frames, 32, pipeline.split_gops(2, 6), network.init_generator(cfg, 0), cfg
            )
            assert len(pipeline.decode_sequence(video)) == 2
            with open("/proc/self/status") as fh:
                print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) * 1024 < 60e6  # VmHWM is in KiB

    def test_decoded_frames_are_full_chroma(self):
        frames = make_sequence(3, seed=13)
        store, cfg = tiny_net(seed=13)
        video, _ = pipeline.encode_sequence(frames, 32, pipeline.split_gops(3, 6), store, cfg)
        for f in pipeline.decode_sequence(video):
            assert f.mode is cs.SubsamplingMode.S444
            assert f.y.samples.shape == (16, 16)
