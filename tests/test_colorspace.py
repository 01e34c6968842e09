"""Color conversion and sampling-layout checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacodec import ChromaCodecError, ConfigError, DataError, DimensionError
from chromacodec import colorspace as cs
from chromacodec import metrics, pipeline


def one_pixel(r, g, b):
    frame = cs.rgb_to_ycbcr(np.array([[[r, g, b]]], dtype=np.uint8))
    return (
        int(frame.y.samples[0, 0]),
        int(frame.cb.samples[0, 0]),
        int(frame.cr.samples[0, 0]),
    )


def make_frame(y, cb, cr, mode=cs.SubsamplingMode.S444):
    return cs.Frame(cs.Plane(y), cs.Plane(cb), cs.Plane(cr), mode)


class TestConversion:
    def test_black_is_achromatic(self):
        assert one_pixel(0, 0, 0) == (0, 128, 128)

    def test_gray_axis(self):
        assert one_pixel(128, 128, 128) == (128, 128, 128)

    def test_pure_red(self):
        assert one_pixel(255, 0, 0) == (76, 85, 255)

    def test_achromatic_inputs_always_neutral(self):
        ramp = np.arange(256, dtype=np.uint8)
        rgb = np.stack([ramp, ramp, ramp], axis=1).reshape(16, 16, 3)
        frame = cs.rgb_to_ycbcr(rgb)
        assert np.all(frame.cb.samples == 128)
        assert np.all(frame.cr.samples == 128)
        assert np.array_equal(frame.y.samples, rgb[:, :, 0])

    def test_round_trip_within_one_level(self):
        rng = np.random.default_rng(2024)
        rgb = rng.integers(0, 256, size=(100, 1000, 3), dtype=np.uint8)
        back = cs.ycbcr_to_rgb(cs.rgb_to_ycbcr(rgb))
        diff = np.abs(back.astype(int) - rgb.astype(int))
        assert diff.max() <= 1

    def test_rgb_shape_checked(self):
        with pytest.raises(DimensionError):
            cs.rgb_to_ycbcr(np.zeros((4, 4), dtype=np.uint8))

    def test_rgb_conversion_requires_full_chroma(self):
        frame = cs.subsample(cs.rgb_to_ycbcr(np.zeros((4, 4, 3), dtype=np.uint8)))
        with pytest.raises(ConfigError):
            cs.ycbcr_to_rgb(frame)


class TestFrameInvariants:
    def test_chroma_dims_by_mode(self):
        assert cs.chroma_dims(64, 48, cs.SubsamplingMode.S444) == (64, 48)
        assert cs.chroma_dims(64, 48, cs.SubsamplingMode.S420) == (32, 24)

    def test_odd_dims_use_ceiling(self):
        assert cs.chroma_dims(5, 3, cs.SubsamplingMode.S420) == (3, 2)

    def test_wrong_chroma_dims_rejected(self):
        y = np.zeros((8, 8), dtype=np.uint8)
        c = np.zeros((8, 4), dtype=np.uint8)
        with pytest.raises(DimensionError):
            cs.Frame(cs.Plane(y), cs.Plane(c), cs.Plane(c), cs.SubsamplingMode.S444)

    def test_frame_rejects_400(self):
        y = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ConfigError):
            make_frame(y, y, y, cs.SubsamplingMode.S400)

    def test_mode_parse(self):
        assert cs.SubsamplingMode.parse("4:2:0") is cs.SubsamplingMode.S420
        assert cs.SubsamplingMode.parse("444") is cs.SubsamplingMode.S444
        for text in ("411", "4:2:2"):
            with pytest.raises(ConfigError):
                cs.SubsamplingMode.parse(text)


class TestModeSpelling:
    def test_value_is_j_a_b_and_parses_back(self):
        assert [m.value for m in cs.SubsamplingMode] == ["4:4:4", "4:2:0", "4:0:0"]
        for mode in cs.SubsamplingMode:
            assert cs.SubsamplingMode.parse(mode.value) is mode
            assert cs.SubsamplingMode.parse(mode.value.replace(":", "")) is mode

    @pytest.mark.parametrize(
        "call,message",
        [
            (cs.ycbcr_to_rgb, "RGB conversion needs 4:4:4 input, got 4:2:0"),
            (cs.subsample, "subsample needs 4:4:4 input, got 4:2:0"),
            (lambda f: cs.upsample(cs.upsample(f)), "upsample needs 4:2:0 input, got 4:4:4"),
            (lambda f: metrics.psnr_frame(cs.upsample(f), f), "frame modes differ: 4:4:4 vs 4:2:0"),
            (lambda f: pipeline._frame_dims([f], pipeline.split_gops(1, 6)),
             "frame 0 is 4:2:0, expected 4:4:4"),
        ],
        ids=["ycbcr_to_rgb", "subsample", "upsample", "psnr_frame", "frame_dims"],
    )
    def test_messages_spell_modes_as_j_a_b(self, call, message):
        plane = np.full((8, 8), 90, dtype=np.uint8)
        frame_420 = cs.subsample(make_frame(plane, plane, plane))
        with pytest.raises(ConfigError) as exc:
            call(frame_420)
        assert str(exc.value) == message


class TestSampling:
    def test_constant_chroma_round_trips_exactly(self):
        y = np.full((6, 8), 90, dtype=np.uint8)
        frame = make_frame(y, np.full((6, 8), 33, np.uint8), np.full((6, 8), 201, np.uint8))
        back = cs.upsample(cs.subsample(frame))
        assert np.array_equal(back.cb.samples, frame.cb.samples)
        assert np.array_equal(back.cr.samples, frame.cr.samples)

    def test_checkerboard_averages_to_midgray(self):
        cb = np.indices((8, 8)).sum(axis=0) % 2 * 255
        y = np.zeros((8, 8), dtype=np.uint8)
        frame = make_frame(y, cb.astype(np.uint8), cb.astype(np.uint8))
        sub = cs.subsample(frame)
        assert np.all(sub.cb.samples == 128)

    def test_single_chroma_sample_becomes_block(self):
        y = np.zeros((2, 2), dtype=np.uint8)
        frame = cs.Frame(
            cs.Plane(y),
            cs.Plane(np.array([[77]], np.uint8)),
            cs.Plane(np.array([[200]], np.uint8)),
            cs.SubsamplingMode.S420,
        )
        up = cs.upsample(frame)
        assert np.all(up.cb.samples == 77)
        assert up.cb.samples.shape == (2, 2)

    def test_upsample_rejects_444(self):
        y = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ConfigError):
            cs.upsample(make_frame(y, y, y))

    def test_subsample_rejects_420(self):
        y = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ConfigError):
            cs.subsample(cs.subsample(make_frame(y, y, y)))

    def test_odd_dims_replicate_edges(self):
        # 3×3 chroma: bottom-right 2×2 box is entirely the replicated corner
        cb = np.zeros((3, 3), dtype=np.uint8)
        cb[2, 2] = 200
        y = np.zeros((3, 3), dtype=np.uint8)
        frame = make_frame(y, cb, cb)
        sub = cs.subsample(frame)
        assert sub.cb.samples.shape == (2, 2)
        assert sub.cb.samples[1, 1] == 200

    def test_round_half_up(self):
        # one 2x2 box averaging to 0.5 must round to 1, not 0
        cb = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        y = np.zeros((2, 2), dtype=np.uint8)
        sub = cs.subsample(make_frame(y, cb, cb))
        assert sub.cb.samples[0, 0] == 1


class TestVolume:
    def test_420_volume(self):
        y = np.zeros((64, 64), np.uint8)
        c = np.zeros((32, 32), np.uint8)
        frame = cs.Frame(cs.Plane(y), cs.Plane(c), cs.Plane(c), cs.SubsamplingMode.S420)
        assert cs.mode_volume(64, 64, frame.mode) == 6144
        assert len(cs.frames_to_bytes([frame])) == 6144

    def test_400_is_two_thirds_of_420(self):
        assert cs.mode_volume(64, 64, cs.SubsamplingMode.S400) == 4096
        assert cs.mode_volume(64, 64, cs.SubsamplingMode.S400) * 3 == (
            cs.mode_volume(64, 64, cs.SubsamplingMode.S420) * 2
        )


class TestIO:
    @pytest.mark.parametrize("mode", [cs.SubsamplingMode.S444, cs.SubsamplingMode.S420])
    def test_raw_round_trip(self, mode):
        rng = np.random.default_rng(5)
        frames = []
        for _ in range(3):
            frame = cs.rgb_to_ycbcr(rng.integers(0, 256, size=(16, 24, 3), dtype=np.uint8))
            frames.append(frame if mode is cs.SubsamplingMode.S444 else cs.subsample(frame))
        back = cs.frames_from_bytes(cs.frames_to_bytes(frames), 24, 16, mode)
        assert len(back) == 3
        for a, b in zip(frames, back):
            assert b.mode is mode
            assert np.array_equal(a.y.samples, b.y.samples)
            assert np.array_equal(a.cb.samples, b.cb.samples)
            assert np.array_equal(a.cr.samples, b.cr.samples)

    def test_bad_stream_length_rejected(self):
        with pytest.raises(DataError):
            cs.frames_from_bytes(b"\x00" * 100, 8, 8, cs.SubsamplingMode.S420)

    @pytest.mark.parametrize("mode", [cs.SubsamplingMode.S444, cs.SubsamplingMode.S420])
    def test_empty_stream_is_data_error(self, mode):
        with pytest.raises(DataError, match="empty"):
            cs.frames_from_bytes(b"", 16, 16, mode)

    @pytest.mark.parametrize("width,height", [(-8, -8), (-8, 8), (8, 0)])
    def test_non_positive_dims_are_config_error(self, width, height):
        with pytest.raises(ConfigError, match="dims must be positive"):
            cs.frames_from_bytes(b"\x00" * 192, width, height, cs.SubsamplingMode.S444)

    @settings(deadline=None, max_examples=200)
    @given(
        st.data(),
        st.integers(1, 16),
        st.integers(1, 16),
        st.sampled_from([cs.SubsamplingMode.S444, cs.SubsamplingMode.S420]),
    )
    def test_any_bytes_give_frames_or_error(self, data, width, height, mode):
        per = cs.mode_volume(width, height, mode)
        size = data.draw(st.integers(0, 3).map(lambda n: n * per) | st.integers(0, 3 * per))
        raw = data.draw(st.binary(min_size=size, max_size=size))
        try:
            frames = cs.frames_from_bytes(raw, width, height, mode)
        except ChromaCodecError:
            return
        assert len(frames) == size // per and all(f.mode is mode for f in frames)
        assert all((f.y.width, f.y.height) == (width, height) for f in frames)
        assert cs.frames_to_bytes(frames) == raw

    def test_400_stream_unsupported(self):
        with pytest.raises(ConfigError):
            cs.frames_from_bytes(b"\x00" * 64, 8, 8, cs.SubsamplingMode.S400)

    def test_ppm_round_trip(self):
        rng = np.random.default_rng(6)
        rgb = rng.integers(0, 256, size=(10, 7, 3), dtype=np.uint8)
        assert np.array_equal(cs.ppm_to_rgb(cs.rgb_to_ppm(rgb)), rgb)

    def test_ppm_with_comments(self):
        body = bytes(range(12))
        img = cs.ppm_to_rgb(b"P6\n# a comment\n2 2\n# again\n255\n" + body)
        assert img.shape == (2, 2, 3)
        assert img.tobytes() == body

    def test_ppm_truncated_body(self):
        with pytest.raises(DataError):
            cs.ppm_to_rgb(b"P6\n2 2\n255\n\x00\x00")

    @pytest.mark.parametrize("dims", [b"-4 -2", b"0 0", b"0 3", b"3 0", b"-1 -24"])
    def test_ppm_dims_below_one_are_data_error(self, dims):
        with pytest.raises(DataError, match="at least 1"):
            cs.ppm_to_rgb(b"P6\n" + dims + b"\n255\n" + b"\x00" * 24)

    # int() alone takes underscores and a plus sign, a token loop reads
    # "P612" as the magic followed by a width of 12, and int() refuses more
    # than 4300 digits with a ValueError
    @pytest.mark.parametrize(
        "header",
        [
            b"P6\n1_0 2\n255\n",
            b"P6\n+12 2\n255\n",
            b"P612 10 255\n",
            b"P6 " + b"1" * 5000 + b" 1 255\n",
        ],
        ids=["underscore", "plus", "no-separator", "5000-digits"],
    )
    def test_ppm_header_fields_are_plain_decimal(self, header):
        with pytest.raises(DataError):
            cs.ppm_to_rgb(header + b"\x00" * 360)  # enough body for each misread header

    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(
            st.integers(-3, 10**30).map(str)
            | st.just("255")
            | st.text("0123456789+-# \n", max_size=4),
            max_size=4,
        ).map(lambda ts: [t.encode() for t in ts])
        | st.lists(st.binary(max_size=4), max_size=4)
        | st.tuples(st.integers(-2, 6), st.integers(-2, 6)).map(
            lambda wh: [str(wh[0]).encode(), str(wh[1]).encode(), b"255"]
        ),
        st.sampled_from([b" ", b"\n", b"\t", b"\n# c\n"]),
        st.binary(max_size=120),
    )
    def test_p6_with_random_header_gives_image_or_data_error(self, tokens, sep, body):
        try:
            img = cs.ppm_to_rgb(b"P6" + sep + sep.join(tokens) + b"\n" + body)
        except DataError:
            return
        assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3
        assert img.shape[0] >= 1 and img.shape[1] >= 1

    def test_ppm_wrong_magic(self):
        with pytest.raises(DataError):
            cs.ppm_to_rgb(b"P5\n2 2\n255\n" + b"\x00" * 4)
